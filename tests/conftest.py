import numpy as np
import pytest

from storedlight import StageAngles, build_transfer_matrix, fock_interference


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_stage(rng, scale=2 * np.pi):
    return StageAngles(*rng.uniform(-scale, scale, size=3))


def random_transfer(rng, scale=2 * np.pi):
    return build_transfer_matrix(random_stage(rng, scale), random_stage(rng, scale))


def overshoot_unit_overlap(monkeypatch, chosen):
    """Scale by 1 + 1e-9 the rows that chosen(entries) selects in both
    unit-overlap kernels, the unit route's block and the partial-overlap
    mixture's stack, so those points miss the normalisation guard tenfold."""
    for name in ("_unit_overlap_block", "_unit_overlap_stack"):
        original = getattr(fock_interference, name)

        def scaled(n, m, entries, original=original):
            probs = original(n, m, entries)
            return np.where(chosen(entries)[:, None], probs * (1.0 + 1e-9), probs)

        monkeypatch.setattr(fock_interference, name, scaled)
