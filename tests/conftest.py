import numpy as np
import pytest

from storedlight import StageAngles, build_transfer_matrix, fock_interference


# generalised Hong-Ou-Mandel overlaps: both sides of |s| = 1 - UNIT_OVERLAP_TOL
HOM_OVERLAPS = [0.0, 0.3, 0.9, 1.0 - 2e-8, 1.0 - 5e-9, 1.0]

# chi21 values whose difference with chi20 = 0.3 rounds away some of its
# digits, all of them from 1e17 on
LARGE_PHASES = [7.0, 1e4, 1e8, 1e12, 1e17, 1e300, -1e300]


def large_phase_stages(chi21, swap):
    """Storage (0.3, 0.3, 0) and release (1.1, chi21, 0) as StageAngles, the
    two phases exchanged when swap, so that the storage phase is the large one."""
    chi20 = 0.3
    if swap:
        chi20, chi21 = chi21, chi20
    return StageAngles(0.3, chi20, 0.0), StageAngles(1.1, chi21, 0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_stage(rng, scale=2 * np.pi):
    return StageAngles(*rng.uniform(-scale, scale, size=3))


def random_transfer(rng, scale=2 * np.pi):
    return build_transfer_matrix(random_stage(rng, scale), random_stage(rng, scale))


def overshoot_unit_overlap(monkeypatch, chosen):
    """Scale by 1 + 1e-9 the rows that chosen(entries) selects in the
    unit-overlap stack, which serves the unit route's one layer and the
    partial-overlap mixture's layers, so those points miss the normalisation
    guard tenfold."""
    original = fock_interference._unit_overlap_stack

    def scaled(n, m, entries, lowest=0):
        probs = original(n, m, entries, lowest)
        return np.where(chosen(entries)[:, None], probs * (1.0 + 1e-9), probs)

    monkeypatch.setattr(fock_interference, "_unit_overlap_stack", scaled)
