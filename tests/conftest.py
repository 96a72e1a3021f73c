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
    """Scale the rows of the unit-overlap kernel that chosen(entries) selects
    by 1 + 1e-9, so those points miss the normalisation guard tenfold."""
    original = fock_interference._unit_overlap_block

    def scaled(n, m, entries):
        probs = original(n, m, entries)
        return np.where(chosen(entries)[:, None], probs * (1.0 + 1e-9), probs)

    monkeypatch.setattr(fock_interference, "_unit_overlap_block", scaled)
