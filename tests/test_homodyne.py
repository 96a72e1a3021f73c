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
            cross = amp ** 2 * (math.cosh(2.0 * r1) - math.sinh(2.0 * r1) * math.cos(2.0 * gamma))
            cross += math.sinh(r1) ** 2 if probe == PROBE_QUANTUM else 0.0
            expected = math.cos(two_dphi) ** 2 * direct + math.sin(two_dphi) ** 2 * cross
            got = general_variance(plain_config(r1, amp, gamma, phi0, phi1, probe=probe))
            assert got.hex() == expected.hex()

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
