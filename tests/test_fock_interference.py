import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_transfer
from storedlight import (
    CapacityError,
    FockInput,
    GramMatrix,
    InternalConsistencyError,
    OverlapDomainError,
    ParameterDomainError,
    ReleaseDistribution,
    StageAngles,
    UndefinedRatioError,
    build_transfer_matrix,
    fano_factor,
    magnetic_phase_matrix,
    mean_release_count,
    release_distribution,
    release_distribution_unit_overlap,
    release_variance,
)


def expansion_distribution(n, m, transfer):
    """Released channel-1 count distribution by brute polynomial expansion.

    Expands (S11 c1 + S21 c2)^n (S12 c1 + S22 c2)^m over the c1 degree with
    repeated convolutions, then attaches the bosonic normalization factors.
    """
    coeffs = np.array([1.0 + 0.0j])
    for _ in range(n):
        coeffs = np.convolve(coeffs, np.array([transfer.s21, transfer.s11]))
    for _ in range(m):
        coeffs = np.convolve(coeffs, np.array([transfer.s22, transfer.s12]))
    total = n + m
    amps = np.array([
        coeffs[i] * math.sqrt(math.factorial(i) * math.factorial(total - i)
                              / (math.factorial(n) * math.factorial(m)))
        for i in range(total + 1)
    ])
    return np.abs(amps) ** 2


class TestReleaseDistribution:
    def test_tolerates_tiny_negative_entries(self):
        dist = ReleaseDistribution([1.0 + 4e-10, -4e-10])
        assert dist[1] == 0.0
        assert dist[0] == 1.0

    def test_rejects_entries_beyond_guard(self):
        with pytest.raises(InternalConsistencyError):
            ReleaseDistribution([1.0 + 1e-6, -1e-6])

    def test_rejects_bad_normalization(self):
        with pytest.raises(InternalConsistencyError):
            ReleaseDistribution([0.5, 0.5 + 2e-9])

    def test_moments(self):
        dist = ReleaseDistribution([0.25, 0.5, 0.25])
        assert dist.mean() == pytest.approx(1.0)
        assert dist.second_moment() == pytest.approx(1.5)
        assert dist.variance() == pytest.approx(0.5)


class TestFockInput:
    def test_rejects_negative_and_noninteger(self):
        with pytest.raises(ParameterDomainError):
            FockInput(-1, 0)
        with pytest.raises(ParameterDomainError):
            FockInput(1.5, 0)
        with pytest.raises(ParameterDomainError):
            FockInput(True, 0)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError) as info:
            FockInput(40, 40)
        assert info.value.required == 80
        assert FockInput(32, 32).total == 64

    def test_default_overlap_is_unit(self):
        assert FockInput(1, 1).overlap.is_unit_overlap()


class TestReleaseDistributionUnitOverlap:
    def test_identity_keeps_input(self):
        identity = build_transfer_matrix(StageAngles(0, 0, 0), StageAngles(0, 0, 0))
        dist = release_distribution_unit_overlap(FockInput(3, 2), identity)
        assert np.allclose(dist.probabilities, [0, 0, 0, 1, 0, 0], atol=1e-14)

    def test_full_swap_moves_input(self):
        dist = release_distribution_unit_overlap(FockInput(3, 2), magnetic_phase_matrix(np.pi))
        assert np.allclose(dist.probabilities, [0, 0, 1, 0, 0, 0], atol=1e-14)

    def test_single_photon_routing(self, rng):
        for _ in range(10):
            transfer = random_transfer(rng)
            from_one = release_distribution_unit_overlap(FockInput(1, 0), transfer)
            assert np.allclose(from_one.probabilities,
                               [abs(transfer.s21) ** 2, abs(transfer.s11) ** 2], atol=1e-13)
            from_two = release_distribution_unit_overlap(FockInput(0, 1), transfer)
            assert np.allclose(from_two.probabilities,
                               [abs(transfer.s22) ** 2, abs(transfer.s12) ** 2], atol=1e-13)

    def test_pair_coincidence_follows_cos_squared(self, rng):
        # one photon per channel through the magnetic splitter
        for delta in rng.uniform(0, 2 * np.pi, size=25):
            dist = release_distribution_unit_overlap(
                FockInput(1, 1), magnetic_phase_matrix(delta))
            assert np.allclose(dist[1], np.cos(delta) ** 2, atol=1e-13)

    def test_pair_coincidence_from_mixing_angles(self, rng):
        # with every control phase zero the coincidence probability follows
        # twice the mixing-angle difference, not the difference itself
        for phi0, phi1 in rng.uniform(0, 2 * np.pi, size=(25, 2)):
            transfer = build_transfer_matrix(
                StageAngles(phi1, 0.0, 0.0), StageAngles(phi0, 0.0, 0.0))
            dist = release_distribution_unit_overlap(FockInput(1, 1), transfer)
            assert np.allclose(dist[1], np.cos(2 * (phi1 - phi0)) ** 2, atol=1e-12)

    def test_coalescence_at_quarter_period(self):
        dist = release_distribution_unit_overlap(
            FockInput(1, 1), magnetic_phase_matrix(np.pi / 2))
        assert dist[1] < 1e-14
        assert np.allclose(dist[0], 0.5, atol=1e-13)
        assert np.allclose(dist[2], 0.5, atol=1e-13)

    def test_matches_polynomial_expansion(self, rng):
        for n in range(5):
            for m in range(5):
                transfer = random_transfer(rng)
                dist = release_distribution_unit_overlap(FockInput(n, m), transfer)
                assert np.allclose(dist.probabilities,
                                   expansion_distribution(n, m, transfer), atol=1e-12)

    def test_partial_overlap_is_refused(self, rng):
        fock_input = FockInput(1, 1, GramMatrix(0.5))
        with pytest.raises(OverlapDomainError):
            release_distribution_unit_overlap(fock_input, random_transfer(rng))

    @given(st.integers(0, 6), st.integers(0, 6),
           st.floats(-7, 7, allow_nan=False), st.floats(-7, 7, allow_nan=False),
           st.floats(-7, 7, allow_nan=False), st.floats(-7, 7, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_is_a_probability_vector(self, n, m, p0, c2, p1, c21):
        transfer = build_transfer_matrix(StageAngles(p0, c2, 0.0), StageAngles(p1, c21, 0.0))
        dist = release_distribution_unit_overlap(FockInput(n, m), transfer)
        assert len(dist) == n + m + 1
        assert dist.probabilities.min() >= 0.0
        assert abs(dist.probabilities.sum() - 1.0) < 1e-10
        expected_mean = abs(transfer.s11) ** 2 * n + abs(transfer.s12) ** 2 * m
        assert np.allclose(dist.mean(), expected_mean, atol=1e-10)


class TestReleaseDistributionAnyOverlap:
    def test_unit_overlap_is_the_unit_overlap_form(self, rng):
        for s in (1.0, -1.0, np.exp(0.7j)):
            transfer = random_transfer(rng)
            fock_input = FockInput(3, 2, GramMatrix(s))
            got = release_distribution(fock_input, transfer).probabilities
            want = release_distribution_unit_overlap(fock_input, transfer).probabilities
            assert got.tobytes() == want.tobytes()

    def test_orthogonal_packets_give_two_binomials(self, rng):
        for n, m in ((0, 3), (2, 2), (4, 1), (5, 6)):
            transfer = random_transfer(rng)
            dist = release_distribution(FockInput(n, m, GramMatrix(0.0)), transfer)
            p1, p2 = abs(transfer.s11) ** 2, abs(transfer.s12) ** 2
            first = [math.comb(n, k) * p1 ** k * (1 - p1) ** (n - k) for k in range(n + 1)]
            second = [math.comb(m, j) * p2 ** j * (1 - p2) ** (m - j) for j in range(m + 1)]
            assert np.allclose(dist.probabilities, np.convolve(first, second), atol=1e-14)

    def test_continuous_at_unit_overlap(self, rng):
        # 1 - 1e-9 counts as unit overlap; the wider gaps take the mixture
        for n, m in ((1, 1), (3, 4), (6, 6)):
            transfer = random_transfer(rng)
            unit = release_distribution_unit_overlap(FockInput(n, m), transfer)
            for gap in (1e-9, 2e-8, 1e-7):
                overlap = GramMatrix((1.0 - gap) * np.exp(0.4j))
                assert overlap.is_unit_overlap() == (gap == 1e-9)
                near = release_distribution(FockInput(n, m, overlap), transfer)
                # the mixture moves weight 1 - |s|^2m < 2 m gap off the unit-overlap term
                assert np.max(np.abs(near.probabilities - unit.probabilities)) <= 2 * m * gap

    def test_moments_at_partial_overlap(self, rng):
        for n, m in ((1, 1), (2, 5), (6, 3), (16, 16)):
            s = 0.5 * np.exp(1.1j)
            transfer = random_transfer(rng)
            fock_input = FockInput(n, m, GramMatrix(s))
            dist = release_distribution(fock_input, transfer)
            assert dist.mean() == pytest.approx(mean_release_count(fock_input, transfer), abs=1e-11)
            assert dist.variance() == pytest.approx(release_variance(fock_input, transfer), abs=1e-10)


class TestMoments:
    def test_distribution_consistency_at_unit_overlap(self, rng):
        for _ in range(10):
            transfer = random_transfer(rng)
            n, m = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            fock_input = FockInput(n, m)
            dist = release_distribution_unit_overlap(fock_input, transfer)
            assert np.allclose(dist.mean(), mean_release_count(fock_input, transfer), atol=1e-12)
            assert np.allclose(dist.variance(), release_variance(fock_input, transfer), atol=1e-11)

    def test_mean_is_overlap_independent(self, rng):
        transfer = random_transfer(rng)
        means = [mean_release_count(FockInput(2, 3, GramMatrix(s)), transfer)
                 for s in (0.0, 0.5, 0.9, 1.0)]
        assert np.allclose(means, means[0], atol=1e-15)

    def test_second_channel_complements(self, rng):
        transfer = random_transfer(rng)
        fock_input = FockInput(2, 3)
        first = mean_release_count(fock_input, transfer, channel=1)
        second = mean_release_count(fock_input, transfer, channel=2)
        assert np.allclose(first + second, 5.0, atol=1e-12)

    def test_orthogonal_packets_variance(self, rng):
        # with orthogonal packets only the splitting ratios matter
        for _ in range(10):
            transfer = random_transfer(rng)
            n, m = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            expected = abs(transfer.s11 * transfer.s12) ** 2 * (n + m)
            got = release_variance(FockInput(n, m, GramMatrix(0.0)), transfer)
            assert np.allclose(got, expected, atol=1e-13)


class TestFanoFactor:
    def test_balanced_pair_value(self):
        # equal inputs give mean n, so the factor is 2|S11 S12|^2 (n|s|^2 + 1)
        for delta in (0.3, 1.1, 2.0):
            for n in (1, 2, 4):
                for s_mag in (0.0, 0.6, 1.0):
                    transfer = magnetic_phase_matrix(delta)
                    fock_input = FockInput(n, n, GramMatrix(s_mag))
                    expected = (2 * abs(transfer.s11 * transfer.s12) ** 2
                                * (n * s_mag ** 2 + 1))
                    assert np.allclose(fano_factor(fock_input, transfer),
                                       expected, atol=1e-12)

    def test_monotone_in_overlap(self, rng):
        for _ in range(5):
            transfer = random_transfer(rng)
            if abs(transfer.s11 * transfer.s12) < 1e-3:
                continue
            values = [fano_factor(FockInput(3, 3, GramMatrix(s)), transfer)
                      for s in np.sqrt(np.linspace(0, 1, 11))]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_undefined_at_zero_mean(self):
        from storedlight import TransferMatrix
        with pytest.raises(UndefinedRatioError):
            fano_factor(FockInput(0, 0), magnetic_phase_matrix(0.4))
        exact_swap = TransferMatrix(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(UndefinedRatioError):
            fano_factor(FockInput(1, 0), exact_swap)
