import math

import numpy as np
import pytest

from storedlight import (
    CapacityError,
    HomodyneConfig,
    PROBE_CLASSICAL,
    PROBE_QUANTUM,
    ParameterDomainError,
    StageAngles,
    balanced_variance,
    general_variance,
    homodyne_oracle,
)
from storedlight.homodyne import count_difference_variance

BALANCED_STORAGE = StageAngles(0.0, 0.0, 0.0)


def balanced_release(chi21=0.0):
    return StageAngles(np.pi / 4, chi21, 0.0)


def plain_config(r1, alpha2_mod, gamma, phi0, phi1, probe=PROBE_QUANTUM):
    return HomodyneConfig(r1, alpha2_mod, gamma,
                          StageAngles(phi0, 0.0, 0.0), StageAngles(phi1, 0.0, 0.0),
                          probe_treatment=probe)


class TestBalancedVariance:
    def test_quadrature_extremes(self):
        # phase-matched probe reads the squeezed axis, quarter turn the other
        for r1 in (0.0, 0.4, 1.0):
            amplified = 4.0  # |alpha2|^2
            assert np.allclose(balanced_variance(r1, 2.0, 0.0, 0.0),
                               amplified * np.exp(-2 * r1), atol=1e-12)
            assert np.allclose(balanced_variance(r1, 2.0, np.pi / 2, 0.0),
                               amplified * np.exp(2 * r1), atol=1e-12)

    def test_phase_enters_as_a_sum(self, rng):
        for _ in range(10):
            r1, amp = rng.uniform(0, 1), rng.uniform(0, 3)
            chi21, gamma = rng.uniform(0, 2 * np.pi, 2)
            assert np.allclose(balanced_variance(r1, amp, gamma, chi21),
                               balanced_variance(r1, amp, gamma + chi21, 0.0), atol=1e-12)

    def test_rejects_negative_probe_amplitude(self):
        with pytest.raises(ParameterDomainError):
            balanced_variance(0.5, -1.0, 0.0, 0.0)


class TestGeneralVariance:
    def test_no_mixing_reads_the_direct_term(self):
        config = plain_config(0.7, 2.0, 1.3, 0.4, 0.4)
        expected = 0.5 * np.sinh(1.4) ** 2 + 4.0
        assert np.allclose(general_variance(config), expected, atol=1e-12)

    def test_full_mixing_reads_the_probed_quadrature(self):
        config = plain_config(0.7, 2.0, 0.9, 0.0, np.pi / 4)
        expected = 4.0 * (np.cosh(1.4) - np.sinh(1.4) * np.cos(1.8)) + np.sinh(0.7) ** 2
        assert np.allclose(general_variance(config), expected, atol=1e-12)

    def test_classical_drops_the_probe_vacuum_term(self, rng):
        for _ in range(20):
            r1 = rng.uniform(0, 1)
            phi0, phi1, gamma = rng.uniform(0, 2 * np.pi, 3)
            quantum = general_variance(plain_config(r1, 1.5, gamma, phi0, phi1))
            classical = general_variance(
                plain_config(r1, 1.5, gamma, phi0, phi1, probe=PROBE_CLASSICAL))
            gap = np.sin(2 * (phi1 - phi0)) ** 2 * np.sinh(r1) ** 2
            assert np.allclose(quantum - classical, gap, atol=1e-12)

    def test_depends_only_on_the_angle_difference(self, rng):
        for _ in range(10):
            r1, gamma = rng.uniform(0, 1), rng.uniform(0, 2 * np.pi)
            phi0, shift = rng.uniform(0, np.pi, 2)
            first = general_variance(plain_config(r1, 2.0, gamma, phi0, phi0 + 0.6))
            second = general_variance(plain_config(r1, 2.0, gamma, phi0 + shift, phi0 + shift + 0.6))
            assert np.allclose(first, second, atol=1e-12)

    def test_matches_the_quantum_oracle_at_any_control_phases(self, rng):
        for _ in range(8):
            r1, amp = rng.uniform(0, 0.5), rng.uniform(0.3, 1.5)
            gamma, *angles = rng.uniform(-7, 7, 7)
            config = HomodyneConfig(r1, amp, gamma, StageAngles(*angles[:3]), StageAngles(*angles[3:]))
            assert general_variance(config) == pytest.approx(homodyne_oracle(config, cutoff=60), rel=1e-12)

    def test_common_control_phase_drops_out(self, rng):
        for _ in range(20):
            r1, amp = rng.uniform(-1, 1), rng.uniform(0, 3)
            gamma, phi0, chi20, chi30, phi1, chi21, chi31, shift = rng.uniform(-7, 7, 8)
            first, second = (general_variance(HomodyneConfig(
                r1, amp, gamma, StageAngles(phi0, chi20, chi30),
                StageAngles(phi1, chi21 + offset, chi31 + offset))) for offset in (0.0, shift))
            assert second == pytest.approx(first, rel=1e-12)


class TestGridKernel:
    def test_rounds_like_the_scalar_closed_form(self, rng):
        for _ in range(2000):
            r1, gamma, phi0, phi1 = rng.normal(0, 2, 4)
            amp = abs(rng.normal(0, 5))
            probe = (PROBE_QUANTUM, PROBE_CLASSICAL)[int(rng.integers(2))]
            two_dphi = 2.0 * (phi1 - phi0)
            direct = 0.5 * math.sinh(2.0 * r1) ** 2 + amp ** 2
            cross = amp ** 2 * (math.exp(-2.0 * r1) * math.cos(gamma) ** 2
                                + math.exp(2.0 * r1) * math.sin(gamma) ** 2)
            cross += math.sinh(r1) ** 2 if probe == PROBE_QUANTUM else 0.0
            expected = math.cos(two_dphi) ** 2 * direct + math.sin(two_dphi) ** 2 * cross
            got = general_variance(plain_config(r1, amp, gamma, phi0, phi1, probe=probe))
            assert got.hex() == expected.hex()

    # W at |alpha2| = 1 from 50-digit mpmath, M built from the rotations and
    # phases of the transfer matrix and the cross term as cosh 2r1 - sinh 2r1
    # cos(2 gamma + 2 arg M21), at these float inputs; the first two settings
    # read the squeezed axis, where that difference cancels in doubles
    @pytest.mark.parametrize("r1,probe,gamma,phi0,phi1,dchi,reference", [
        (10.0, PROBE_CLASSICAL, 0.0, 0.0, math.pi / 4, 0.0, 2.0611537327577318e-9),
        (10.0, PROBE_CLASSICAL, math.pi, 0.0, math.pi / 4, 0.0, 2.0611537327577391e-9),
        (10.0, PROBE_CLASSICAL, 0.7, 0.3, 1.1, 0.4, 125217555352737.01),
        (10.0, PROBE_QUANTUM, 0.0, 0.0, math.pi / 4, 0.0, 121291298.35244757),
        (10.0, PROBE_QUANTUM, math.pi, 0.0, math.pi / 4, 0.0, 121291298.35244757),
        (10.0, PROBE_QUANTUM, 0.7, 0.3, 1.1, 0.4, 125217676127850.4),
        (15.0, PROBE_CLASSICAL, 0.0, 0.0, math.pi / 4, 0.0, 5.3523117162111124e-8),
        (15.0, PROBE_CLASSICAL, math.pi, 0.0, math.pi / 4, 0.0, 5.3523117162271396e-8),
        (15.0, PROBE_CLASSICAL, 0.7, 0.3, 1.1, 0.4, 6.0751167627215475e+22),
        (15.0, PROBE_QUANTUM, 0.0, 0.0, math.pi / 4, 0.0, 2671618645380.6155),
        (15.0, PROBE_QUANTUM, math.pi, 0.0, math.pi / 4, 0.0, 2671618645380.6155),
        (15.0, PROBE_QUANTUM, 0.7, 0.3, 1.1, 0.4, 6.0751167629875724e+22),
    ])
    def test_strong_squeezing_keeps_its_digits(self, r1, probe, gamma, phi0, phi1, dchi, reference):
        (variance,), passed = count_difference_variance(r1, 1.0, gamma, phi0, phi1, dchi, probe)
        assert passed.all()
        assert variance == pytest.approx(reference, rel=1e-14, abs=0.0)

    # W to 40 digits from 400-digit mpmath, M = S^dag diag(1, -1) S with S
    # built from the six stage angles and the cross term as cosh 2r1 -
    # sinh 2r1 cos(2 gamma + 2 arg M21), at these float inputs; columns are
    # r1, probe, |alpha2|, (gamma, phi0, chi20, chi30, phi1, chi21, chi31) and
    # W.  W overflows near |r1| = 177.
    @pytest.mark.parametrize("r1,probe,amp,angles,reference", [
        (60.0, PROBE_QUANTUM, 0.98, (1.9588, -0.4582, -1.813, -2.0312, 4.0673, 5.672, -4.5171),
         4.958226065442510925114698291739979952579e+102),
        (60.0, PROBE_CLASSICAL, 3.3, (-2.8238, 6.5375, 5.8779, 1.9022, 3.5382, 0.2122, 4.5625),
         4.400829847234229738529800467233925221033e+102),
        (-60.0, PROBE_QUANTUM, 2.3, (-2.2566, -3.1094, -3.8313, 0.3614, -0.9672, 2.2845, -6.8202),
         3.39628298397769315182072195789916914479e+102),
        (-60.0, PROBE_CLASSICAL, 2.29, (-1.8875, -4.2644, 1.3281, -0.9056, -2.8001, -4.0682, 5.2447),
         1.172519634845605150536865927306802629739e+103),
        (120.0, PROBE_QUANTUM, 4.01, (1.4939, -2.1686, 6.2555, 0.8873, -0.9413, 5.6063, -2.5292),
         3.172810844428395748420996439215535047616e+207),
        (120.0, PROBE_CLASSICAL, 3.51, (-2.6065, -3.3383, 2.8118, -3.8095, -0.0965, 1.1204, -4.3553),
         3.1735328204710840847075500485166916032e+207),
        (-120.0, PROBE_QUANTUM, 3.68, (0.6788, 1.701, -1.79, -1.1173, -0.0724, -0.4204, 2.4589),
         3.460568004551285532629458446654369710847e+207),
        (-120.0, PROBE_CLASSICAL, 2.93, (-1.1722, -6.9748, 4.1164, 0.2714, -2.4284, -0.0006, -5.6918),
         3.066920896576141522499835774160204242113e+206),
        (175.0, PROBE_QUANTUM, 4.53, (6.8563, -6.1777, -1.9848, 3.2209, -2.6007, 0.9387, -1.168),
         3.899970243959067812943042683043001502943e+302),
        (175.0, PROBE_CLASSICAL, 3.89, (6.4185, 5.4375, 1.6931, -4.7562, 6.2589, -6.6691, -2.8321),
         2.911081667298125859663474551735888109973e+301),
        (-175.0, PROBE_QUANTUM, 1.48, (2.4056, -0.1769, -5.6996, -6.82, 1.4604, -0.1192, 1.4193),
         9.118510094733252461503715062879238986767e+302),
        (-175.0, PROBE_CLASSICAL, 2.86, (5.4664, 5.8576, -4.3644, 6.1897, 4.0282, 1.9464, 2.2345),
         1.629777712205927407601966967069122441944e+302),
    ])
    def test_large_squeezing_at_random_angles(self, r1, probe, amp, angles, reference):
        gamma, phi0, chi20, chi30, phi1, chi21, chi31 = angles
        dchi = (chi31 - chi30) - (chi21 - chi20)
        (variance,), passed = count_difference_variance(r1, amp, gamma, phi0, phi1, dchi, probe)
        assert passed.all()
        assert variance == pytest.approx(reference, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("probe", [PROBE_QUANTUM, PROBE_CLASSICAL])
    def test_rows_are_the_single_point_variances(self, rng, probe):
        r1, amp = rng.uniform(-1.5, 1.5, 300), rng.uniform(0, 5, 300)
        gamma, phi0, chi20, chi30, phi1, chi21, chi31 = rng.uniform(-7, 7, (7, 300))
        dchi = (chi31 - chi30) - (chi21 - chi20)
        variance, passed = count_difference_variance(r1, amp, gamma, phi0, phi1, dchi, probe)
        assert passed.all()
        single = [general_variance(HomodyneConfig(r, a, g, StageAngles(p0, c20, c30), StageAngles(p1, c21, c31),
                                                  probe_treatment=probe))
                  for r, a, g, p0, c20, c30, p1, c21, c31
                  in zip(r1, amp, gamma, phi0, chi20, chi30, phi1, chi21, chi31)]
        assert variance.tobytes() == np.array(single).tobytes()

    def test_mask_and_overflow(self):
        variance, passed = count_difference_variance(np.array([0.3, 400.0, 0.3]), np.array([1.0, 1.0, -1.0]),
                                                     0.0, 0.0, 0.3, 0.0)
        assert passed.tolist() == [True, False, False]
        with pytest.raises(ParameterDomainError, match="not finite"):
            general_variance(plain_config(400.0, 1.0, 0.0, 0.0, 0.3))
        # 2 dphi overflows: math.cos raised ValueError here
        with pytest.raises(ParameterDomainError, match="not finite"):
            general_variance(plain_config(0.3, 1.0, 0.0, -1e308, 1e308))
        # 2 phi overflows at equal stage angles, which do not mix
        assert general_variance(plain_config(0.3, 1.0, 0.0, 1e308, 1e308)) == \
            general_variance(plain_config(0.3, 1.0, 0.0, 0.0, 0.0))


class TestHomodyneOracle:
    def test_quantum_route_matches_closed_form(self, rng):
        for _ in range(4):
            r1 = rng.uniform(0, 0.5)
            amp = rng.uniform(0.3, 1.5)
            gamma, phi0, phi1 = rng.uniform(0, 2 * np.pi, 3)
            config = plain_config(r1, amp, gamma, phi0, phi1)
            closed = general_variance(config)
            oracle = homodyne_oracle(config, cutoff=40)
            assert np.allclose(oracle, closed, rtol=1e-8, atol=1e-10)

    def test_classical_route_matches_balanced_form(self, rng):
        for _ in range(4):
            r1 = rng.uniform(0, 0.5)
            amp = rng.uniform(0.3, 1.5)
            gamma, chi21 = rng.uniform(0, 2 * np.pi, 2)
            config = HomodyneConfig(r1, amp, gamma, BALANCED_STORAGE,
                                    balanced_release(chi21),
                                    probe_treatment=PROBE_CLASSICAL)
            closed = balanced_variance(r1, amp, gamma, chi21)
            oracle = homodyne_oracle(config, cutoff=40)
            assert np.allclose(oracle, closed, rtol=1e-8, atol=1e-10)

    def test_classical_route_requires_balanced_mixing(self):
        config = plain_config(0.3, 1.0, 0.0, 0.0, 0.3, probe=PROBE_CLASSICAL)
        with pytest.raises(ParameterDomainError):
            homodyne_oracle(config, cutoff=16)

    def test_vacuum_probe_balanced_splitter(self):
        # r1 = 0, alpha2 = 0: the count difference has zero variance
        config = plain_config(0.0, 0.0, 0.0, 0.0, np.pi / 4)
        assert homodyne_oracle(config, cutoff=8) == pytest.approx(0.0, abs=1e-12)
        assert general_variance(config) == pytest.approx(0.0, abs=1e-12)

    def test_truncation_gate_reports_a_sufficient_cutoff(self):
        config = plain_config(0.2, 6.0, 0.0, 0.0, np.pi / 4)
        with pytest.raises(CapacityError) as info:
            homodyne_oracle(config, cutoff=8)
        assert info.value.required is not None
        assert info.value.required > 8

    def test_rejects_unusable_cutoff(self):
        config = plain_config(0.0, 0.5, 0.0, 0.0, 0.0)
        with pytest.raises(ParameterDomainError):
            homodyne_oracle(config, cutoff=1)


class TestConfigValidation:
    def test_negative_probe_amplitude(self):
        with pytest.raises(ParameterDomainError):
            plain_config(0.1, -0.5, 0.0, 0.0, 0.0)

    def test_unknown_probe_treatment(self):
        with pytest.raises(ParameterDomainError):
            HomodyneConfig(0.1, 1.0, 0.0, BALANCED_STORAGE, balanced_release(),
                           probe_treatment="semiclassical")

    def test_probe_amplitude_convention(self):
        config = plain_config(0.0, 2.0, np.pi / 2, 0.0, 0.0)
        assert np.allclose(config.alpha2, -2.0j, atol=1e-15)
