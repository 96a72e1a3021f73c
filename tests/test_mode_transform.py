from dataclasses import astuple

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LARGE_PHASES, large_phase_stages, random_stage, random_transfer
from storedlight import (
    GramMatrix,
    NormalizationError,
    ParameterDomainError,
    StageAngles,
    TransferMatrix,
    build_transfer_matrix,
    global_phase_distance,
    gram_from_packets,
    magnetic_phase_matrix,
)
from storedlight.fock_interference import release_probabilities
from storedlight.gaussian_states import quadrature_moments
from storedlight.mode_transform import (
    UNITARITY_TOL,
    _unitarity_deviations,
    magnetic_phase_entries,
    transfer_entries,
    unitarity_defects,
)
from storedlight.oracles import stage_transfer

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)

# (phi0, chi20, chi30, phi1, chi21, chi31) where chi21 - chi20, chi31 - chi30
# or both overflow, and S11, S12, S21, S22 there from 60-digit mpmath
OVERFLOWING_PHASES = [
    ((0.3, -1e308, 0.0, 0.9, 1e308, 0.0),
     [0.5811834158795843 - 0.4799663025858262j, 0.640167598976947 + 0.14847097598089706j,
      -0.25697207345427653 + 0.6048334803507814j, 0.7301620072761111 - 0.18709692045004647j]),
    ((0.2, 0.4, 1e308, 1.1, -0.7, -1e308),
     [0.3059096682547103 - 0.2530880526145095j, 0.47346210885286094 + 0.7862565382702328j,
      -0.3431243649060801 + 0.85125283124339j, 0.3420934653092075 + 0.201510169720165j]),
    ((0.5, -1.7e308, 1.5e308, 0.1, 1.7e308, -1.5e308),
     [0.24681604105680122 - 0.8825768384598527j, -0.15285678154134136 + 0.36983073213036416j,
      -0.10109094247792098 - 0.38719579987415176j, -0.12437831791186296 - 0.9079592876016838j]),
]


# signed zeros, the least denormal, angles whose cos and sin lose every
# digit, and the non-finite values that leave the entries NaN
SPECIAL_ANGLES = [0.0, -0.0, 5e-324, -5e-324, 1e17, 1e300, -1e300, np.inf, -np.inf, np.nan]


def phasor_reference(phi0, chi20, chi30, phi1, chi21, chi31):
    """S11, S12, S21, S22 from 60-digit mpmath as
    R(phi1) diag(e^{i chi21} e^{-i chi20}, e^{i chi31} e^{-i chi30}) R(phi0)^T,
    a product of phasors with no difference of angles."""
    with mpmath.workdps(60):
        c0, s0, c1, s1 = mpmath.cos(phi0), mpmath.sin(phi0), mpmath.cos(phi1), mpmath.sin(phi1)
        a = mpmath.expj(chi21) * mpmath.expj(-chi20)
        b = mpmath.expj(chi31) * mpmath.expj(-chi30)
        return np.array([complex(x) for x in (c1 * c0 * a + s1 * s0 * b, -c1 * s0 * a + s1 * c0 * b,
                                              -s1 * c0 * a + c1 * s0 * b, s1 * s0 * a + c1 * c0 * b)])


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
        with pytest.raises(ParameterDomainError, match="^stage angle phi must be finite, got inf$"):
            StageAngles(np.inf, 0.0, 0.0)
        with pytest.raises(ParameterDomainError, match="^stage angle chi3 must be finite, got nan$"):
            StageAngles(0.0, 0.0, np.nan)

    @pytest.mark.parametrize("point,reference", OVERFLOWING_PHASES)
    def test_overflowing_phase_difference_matches_mpmath(self, point, reference):
        transfer = build_transfer_matrix(StageAngles(*point[:3]), StageAngles(*point[3:]))
        np.testing.assert_allclose(_entries(transfer), reference, rtol=0.0, atol=1e-15)
        assert transfer_entries(*point)[:, 0].tobytes() == _entries(transfer).tobytes()

    @pytest.mark.parametrize("chi21", LARGE_PHASES)
    @pytest.mark.parametrize("swap", [False, True])
    def test_large_phase_difference_matches_mpmath(self, chi21, swap):
        # swap: the storage phase is the large one
        chi20 = 0.3
        if swap:
            chi20, chi21 = chi21, chi20
        point = (0.4, chi20, 0.0, 1.1, chi21, 0.0)
        transfer = build_transfer_matrix(StageAngles(*point[:3]), StageAngles(*point[3:]))
        reference = phasor_reference(*point)
        np.testing.assert_allclose(_entries(transfer), reference, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(transfer_entries(*point)[:, 0], reference, rtol=1e-14, atol=0.0)


class TestStageTransfer:
    """The oracles' own transfer matrix, a product of phasors."""

    def test_is_the_closed_form_matrix(self, rng):
        # R(phi) with the other sign would keep every variance but move the
        # quadrature means
        for _ in range(200):
            storage, release = random_stage(rng, 10.0), random_stage(rng, 10.0)
            np.testing.assert_allclose(stage_transfer(storage, release).matrix,
                                       build_transfer_matrix(storage, release).matrix, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("chi21", LARGE_PHASES)
    @pytest.mark.parametrize("swap", [False, True])
    def test_large_phase_difference_matches_mpmath(self, chi21, swap):
        storage, release = large_phase_stages(chi21, swap)
        np.testing.assert_allclose(_entries(stage_transfer(storage, release)),
                                   phasor_reference(*astuple(storage), *astuple(release)), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("point,reference", OVERFLOWING_PHASES)
    def test_overflowing_phase_difference_matches_mpmath(self, point, reference):
        transfer = stage_transfer(StageAngles(*point[:3]), StageAngles(*point[3:]))
        np.testing.assert_allclose(_entries(transfer), reference, rtol=0.0, atol=1e-15)


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

    @pytest.mark.parametrize("delta", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_delta(self, delta):
        with pytest.raises(ParameterDomainError, match="^delta must be finite"):
            magnetic_phase_matrix(delta)

    def test_transmission_amplitude(self, rng):
        for delta in rng.uniform(0.0, 2 * np.pi, size=20):
            transfer = magnetic_phase_matrix(delta)
            assert np.allclose(abs(transfer.s11), abs(np.cos(delta / 2)), atol=1e-14)
            assert np.allclose(transfer.s12, transfer.s21, atol=1e-16)


class TestTransferMatrix:
    def test_rejects_nonunitary_entries(self):
        with pytest.raises(ParameterDomainError):
            TransferMatrix(1.0, 0.0, 0.0, 1.1)

    @pytest.mark.parametrize("entries,name", [((np.nan, 0, 0, 1), "s11"), ((1, 0, 0, complex(1, np.inf)), "s22")])
    def test_rejects_nonfinite_entries(self, entries, name):
        with pytest.raises(ParameterDomainError, match=f"^matrix entry {name} must be finite$"):
            TransferMatrix(*entries)

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

    @pytest.mark.parametrize("s", [np.nan, complex(0.5, np.inf)])
    def test_rejects_nonfinite_overlap(self, s):
        with pytest.raises(ParameterDomainError, match="^packet overlap must be finite$"):
            GramMatrix(s)

    @pytest.mark.parametrize("excess", [2.3e-16, 5e-13, 9e-13])
    def test_rounding_excess_is_pulled_onto_the_circle(self, excess):
        phase = np.exp(0.7j)
        gram = GramMatrix((1.0 + excess) * phase)
        assert abs(gram.s_overlap) <= 1.0
        assert gram.s_overlap == pytest.approx(phase, abs=1e-15)

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

    @pytest.mark.parametrize("spacing", [0.0, -0.01, np.inf, np.nan])
    def test_bad_spacing_rejected(self, spacing):
        with pytest.raises(ParameterDomainError, match="^grid spacing must be positive and finite"):
            gram_from_packets(self.gaussian(0.0), self.gaussian(0.0), spacing)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("which", [0, 1])
    def test_nonfinite_profile_rejected(self, value, which):
        profiles = [self.gaussian(0.0).astype(complex), self.gaussian(0.5).astype(complex)]
        profiles[which][3000] = value
        with pytest.raises(ParameterDomainError, match="^packet profiles must be finite everywhere$"):
            gram_from_packets(*profiles, self.dt)

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
    # chi21 - chi20 overflows: the grid's phasor product is CPython's
    @example(points=[(0.3, -1e308, 0.0, 0.9, 1e308, 0.0), (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)])
    # chi21 - chi20 rounds away digits of the smaller phase: both carry e^{i lost}
    @example(points=[(0.4, 0.3, 0.0, 1.1, chi, 0.0) for chi in LARGE_PHASES]
             + [(0.4, chi, 0.0, 1.1, 0.3, 0.0) for chi in LARGE_PHASES])
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

    def test_grid_axes_broadcast_like_the_ravelled_grid(self, rng):
        phi0, chi20, phi1, chi31 = rng.uniform(-7, 7, 4)
        chi21 = rng.uniform(-7, 7, (3, 1, 1))
        phi1_axis = rng.uniform(-7, 7, (1, 4, 1))
        delta = rng.uniform(-7, 7, (1, 1, 2))
        grid = transfer_entries(phi0, chi20, 0.0, phi1_axis, chi21, chi31)
        assert grid.shape == (4, 3, 4, 1)
        full = [np.broadcast_to(x, (3, 4, 1)).ravel() for x in (phi0, chi20, 0.0, phi1_axis, chi21, chi31)]
        assert grid.reshape(4, -1).tobytes() == transfer_entries(*full).tobytes()
        assert transfer_entries(phi0, chi20, 0.0, phi1, 0.0, chi31).shape == (4, 1)
        magnetic = magnetic_phase_entries(delta)
        assert magnetic.shape == (4, 1, 1, 2)
        assert magnetic.reshape(4, -1).tobytes() == magnetic_phase_entries(delta.ravel()).tobytes()

    @pytest.mark.parametrize("position", range(6))
    @pytest.mark.parametrize("value", SPECIAL_ANGLES)
    def test_one_value_angles_are_the_swept_route_bit_for_bit(self, position, value, rng):
        # the other angles are numbers: finite ones take math and cmath, others numpy
        points = rng.uniform(-7, 7, (6, 5))
        points[rng.random((6, 5)) < 0.2] = rng.choice(SPECIAL_ANGLES)
        points[position, 2] = value
        point = [float(x) for x in points[:, 2]]
        # every angle swept, so every entry comes from numpy's cos, sin and exp
        expected = transfer_entries(*points)[:, 2:3].tobytes()
        for form in (value, np.array(value), np.array([value])):
            single = transfer_entries(*point[:position], form, *point[position + 1:])
            assert single.shape == (4, 1)
            assert single.tobytes() == expected
        swept = transfer_entries(*point[:position], points[position], *point[position + 1:])
        assert swept.shape == (4, 5)
        assert swept[:, 2:3].tobytes() == expected
        assert transfer_entries(*point[:position], np.array([[value]]), *point[position + 1:]).shape == (4, 1, 1)

    def test_defects_are_the_deviations_bit_for_bit(self, rng):
        # (4,) stacks too, whose complex products and abs numpy rounds as scalars
        for shape in [()] * 100 + [(1,), (7,), (3, 5)]:
            entries = rng.normal(size=(4, *shape)) + 1j * rng.normal(size=(4, *shape))
            # squared norm 2 at every point, so the products' last bits decide the defect
            balanced = entries / np.sqrt((abs(entries) ** 2).sum(axis=0) / 2)
            unitary = transfer_entries(*rng.uniform(-7, 7, (6, *shape))).reshape(4, *shape)
            special = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e300], (2, 4, *shape))
            flagged = rng.random((2, 4, *shape)) < 0.15
            odd = unitary.copy()
            odd.real[flagged[0]], odd.imag[flagged[1]] = special[0][flagged[0]], special[1][flagged[1]]
            for stack in (entries, balanced, unitary, odd):
                with np.errstate(over="ignore", invalid="ignore"):
                    expected = np.maximum.reduce([abs(x) for x in _unitarity_deviations(*stack)])
                    assert unitarity_defects(stack).tobytes() == expected.tobytes()

    def test_defects_broadcast_to_the_grid(self, rng):
        # an axis the transfer does not depend on: entries (4, a, 1)
        phi1 = rng.uniform(-7, 7, (5, 1))
        entries = transfer_entries(0.3, 1.1, -0.4, phi1, 2.0, 0.5)
        assert entries.shape == (4, 5, 1)
        full = transfer_entries(0.3, 1.1, -0.4, np.broadcast_to(phi1, (5, 6)), 2.0, 0.5)
        assert full.shape == (4, 5, 6)
        np.testing.assert_allclose(np.broadcast_to(unitarity_defects(entries), (5, 6)), unitarity_defects(full),
                                   rtol=0.0, atol=1e-15)

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

    @pytest.mark.parametrize("call,message", [
        (lambda: release_probabilities(1, 1, np.ones((8, 1))),
         "expected a (4, ...) array of S11, S12, S21, S22, got shape (8, 1)"),
        (lambda: release_probabilities(1, 1, np.ones((3, 1))),
         "expected a (4, ...) array of S11, S12, S21, S22, got shape (3, 1)"),
        (lambda: unitarity_defects(np.ones((3, 2))),
         "expected a (4, ...) array of S11, S12, S21, S22, got shape (3, 2)"),
        (lambda: quadrature_moments(np.ones((3, 1)), 0, 0, (0, 0), (0, 0)),
         "expected a (2, ...) array of S_c1, S_c2, got shape (3, 1)"),
    ], ids=["release-8", "release-3", "defects-3", "moments-3"])
    def test_entry_arrays_need_their_leading_axis(self, call, message):
        with pytest.raises(ParameterDomainError) as raised:
            call()
        assert str(raised.value) == message
