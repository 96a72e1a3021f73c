import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_stage, random_transfer
from storedlight import (
    GramMatrix,
    InternalConsistencyError,
    NormalizationError,
    ParameterDomainError,
    StageAngles,
    TransferMatrix,
    build_transfer_matrix,
    global_phase_distance,
    gram_from_packets,
    magnetic_phase_matrix,
)
from storedlight.mode_transform import (
    UNITARITY_TOL,
    magnetic_phase_entries,
    transfer_entries,
    unitarity_defects,
)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def rotation(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


class TestBuildTransferMatrix:
    def test_identity_when_stages_coincide(self, rng):
        for _ in range(20):
            stage = random_stage(rng)
            transfer = build_transfer_matrix(stage, stage)
            assert np.allclose(transfer.matrix, np.eye(2), atol=1e-14)

    def test_factorized_structure(self, rng):
        # R(phi1) diag(e^{i dchi2}, e^{i dchi3}) R(phi0)^T, assembled with numpy
        for _ in range(50):
            sto, rel = random_stage(rng), random_stage(rng)
            expected = rotation(rel.phi) @ np.diag([
                np.exp(1j * (rel.chi2 - sto.chi2)),
                np.exp(1j * (rel.chi3 - sto.chi3)),
            ]) @ rotation(sto.phi).T
            assert np.allclose(build_transfer_matrix(sto, rel).matrix, expected, atol=1e-14)

    @given(angles, angles, angles, angles, angles, angles)
    @settings(max_examples=200, deadline=None)
    def test_always_unitary(self, p0, c20, c30, p1, c21, c31):
        transfer = build_transfer_matrix(StageAngles(p0, c20, c30), StageAngles(p1, c21, c31))
        assert transfer.unitarity_defect() < 1e-12

    def test_phase_only_release_is_diagonal(self):
        transfer = build_transfer_matrix(StageAngles(0.0, 0.0, 0.0), StageAngles(0.0, 0.4, -0.7))
        assert np.allclose(transfer.matrix,
                           np.diag([np.exp(0.4j), np.exp(-0.7j)]), atol=1e-15)

    def test_rejects_nonfinite_angle(self):
        with pytest.raises(ParameterDomainError):
            StageAngles(np.inf, 0.0, 0.0)


class TestMagneticPhaseMatrix:
    def test_matches_control_phase_offset(self, rng):
        # a coherence phase shift delta acts like adding delta to the storage
        # chi2 at balanced mixing, with no global phase left over
        for delta in rng.uniform(-8.0, 8.0, size=30):
            direct = magnetic_phase_matrix(delta)
            shifted = build_transfer_matrix(
                StageAngles(np.pi / 4, delta, 0.0), StageAngles(np.pi / 4, 0.0, 0.0))
            assert np.allclose(direct.matrix, shifted.matrix, atol=1e-13)

    def test_special_values(self):
        assert np.allclose(magnetic_phase_matrix(0.0).matrix, np.eye(2), atol=1e-15)
        swap = magnetic_phase_matrix(np.pi).matrix
        assert np.allclose(swap, np.array([[0, 1], [1, 0]]), atol=1e-15)
        half = magnetic_phase_matrix(np.pi / 2)
        assert np.allclose(abs(half.s11) ** 2, 0.5, atol=1e-15)
        assert np.allclose(abs(half.s12) ** 2, 0.5, atol=1e-15)

    def test_transmission_amplitude(self, rng):
        for delta in rng.uniform(0.0, 2 * np.pi, size=20):
            transfer = magnetic_phase_matrix(delta)
            assert np.allclose(abs(transfer.s11), abs(np.cos(delta / 2)), atol=1e-14)
            assert np.allclose(transfer.s12, transfer.s21, atol=1e-16)


class TestTransferMatrix:
    def test_rejects_nonunitary_entries(self):
        with pytest.raises(ParameterDomainError):
            TransferMatrix(1.0, 0.0, 0.0, 1.1)

    def test_row_selection(self, rng):
        transfer = random_transfer(rng)
        assert transfer.row(1) == (transfer.s11, transfer.s12)
        assert transfer.row(2) == (transfer.s21, transfer.s22)
        with pytest.raises(ParameterDomainError):
            transfer.row(3)

    def test_global_phase_distance(self, rng):
        base = random_transfer(rng)
        theta = 1.234
        rotated = TransferMatrix(*(np.exp(1j * theta) * base.matrix).ravel())
        assert global_phase_distance(base, rotated) < 1e-14
        other = build_transfer_matrix(StageAngles(0.3, 0, 0), StageAngles(1.0, 0, 0))
        ident = build_transfer_matrix(StageAngles(0, 0, 0), StageAngles(0, 0, 0))
        assert global_phase_distance(other, ident) > 0.1


class TestGramMatrix:
    def test_matrix_is_positive_semidefinite(self, rng):
        for _ in range(20):
            s = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            gram = GramMatrix(s)
            eigenvalues = np.linalg.eigvalsh(gram.matrix)
            assert eigenvalues.min() >= -1e-14
            assert np.allclose(gram.matrix, gram.matrix.conj().T)

    def test_rejects_overlap_above_one(self):
        with pytest.raises(ParameterDomainError):
            GramMatrix(1.0 + 1e-6)

    def test_unit_overlap_classification(self):
        assert GramMatrix(1.0).is_unit_overlap()
        assert GramMatrix(np.exp(0.7j)).is_unit_overlap()
        assert GramMatrix(1.0 - 1e-9).is_unit_overlap()
        assert not GramMatrix(0.999).is_unit_overlap()


class TestGramFromPackets:
    grid = np.linspace(-30.0, 30.0, 6001)
    dt = grid[1] - grid[0]

    def gaussian(self, center, width=1.0):
        profile = np.exp(-((self.grid - center) ** 2) / (2 * width ** 2))
        return profile / np.sqrt(np.sqrt(np.pi) * width)

    def test_identical_packets(self):
        f = self.gaussian(0.0)
        gram = gram_from_packets(f, f, self.dt)
        assert abs(gram.s_overlap - 1.0) < 1e-10

    def test_displaced_gaussians(self):
        # analytic overlap exp(-d^2/4) for unit-width normalized gaussians
        for d in (0.5, 1.0, 2.5):
            gram = gram_from_packets(self.gaussian(0.0), self.gaussian(d), self.dt)
            assert np.allclose(gram.s_overlap, np.exp(-d * d / 4), atol=1e-10)

    def test_phase_only_difference_keeps_unit_magnitude(self):
        f = self.gaussian(0.0)
        gram = gram_from_packets(f, f * np.exp(0.9j), self.dt)
        assert gram.is_unit_overlap()
        assert np.allclose(gram.s_overlap, np.exp(0.9j), atol=1e-10)

    def test_unnormalized_profile_rejected(self):
        with pytest.raises(NormalizationError) as info:
            gram_from_packets(1.5 * self.gaussian(0.0), self.gaussian(0.0), self.dt)
        assert info.value.measured_norm == pytest.approx(2.25, rel=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterDomainError):
            gram_from_packets(self.gaussian(0.0), self.gaussian(0.0)[:-1], self.dt)

    def test_marginal_excess_is_clamped(self):
        # norm 1 + 5e-9 passes the norm gate, and the self-overlap then lands
        # just above 1, exercising the clamp path
        f = self.gaussian(0.0) * np.sqrt(1.0 + 5e-9)
        with pytest.warns(UserWarning):
            gram = gram_from_packets(f, f, self.dt)
        assert abs(gram.s_overlap) <= 1.0
        assert gram.is_unit_overlap()


def _entries(transfer):
    return np.array([transfer.s11, transfer.s12, transfer.s21, transfer.s22])


class TestGridEntries:
    @given(st.lists(st.tuples(angles, angles, angles, angles, angles, angles), min_size=1, max_size=20))
    # numpy's fused complex product gave Re S21 = -0.0 here, the matrix +0.0
    @example(points=[(-0.0, -4.5, 0.0, -5e-324, 0.0, 0.0)])
    @settings(max_examples=100, deadline=None)
    def test_stage_entries_match_the_matrix_bit_for_bit(self, points):
        grid = transfer_entries(*np.array(points).T)
        for column, point in zip(grid.T, points):
            transfer = build_transfer_matrix(StageAngles(*point[:3]), StageAngles(*point[3:]))
            assert column.tobytes() == _entries(transfer).tobytes()

    @given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_magnetic_entries_match_the_matrix_bit_for_bit(self, deltas):
        grid = magnetic_phase_entries(np.array(deltas))
        for column, delta in zip(grid.T, deltas):
            assert column.tobytes() == _entries(magnetic_phase_matrix(delta)).tobytes()

    def test_numbers_broadcast_against_arrays(self):
        grid = transfer_entries(0.1, 0.2, 0.3, np.array([0.4, 0.5]), 0.6, 0.7)
        assert grid.shape == (4, 2)
        assert magnetic_phase_entries(0.3).shape == (4, 1)

    def test_defects_follow_the_scalar_method(self, rng):
        points = rng.uniform(-7, 7, size=(6, 50))
        defects = unitarity_defects(transfer_entries(*points))
        for defect, point in zip(defects, points.T):
            transfer = build_transfer_matrix(StageAngles(*point[:3]), StageAngles(*point[3:]))
            assert defect == pytest.approx(transfer.unitarity_defect(), abs=1e-15)
        assert np.all(defects < 1e-15)

    def test_nonfinite_points_fail_the_unitarity_guard(self):
        grid = transfer_entries(np.array([0.1, np.inf, np.nan]), 0.0, 0.0, 0.2, 0.0, 0.0)
        assert (unitarity_defects(grid) <= UNITARITY_TOL).tolist() == [True, False, False]
        assert not unitarity_defects(magnetic_phase_entries(np.inf))[0] <= UNITARITY_TOL
