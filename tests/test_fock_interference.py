import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import overshoot_unit_overlap, random_transfer
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
from storedlight import fock_interference
from storedlight.fock_interference import GRID_CHUNK, release_probabilities
from storedlight.mode_transform import magnetic_phase_entries, transfer_entries


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

    def test_rejects_nan(self):
        with pytest.raises(InternalConsistencyError):
            ReleaseDistribution([float("nan"), 0.5])
        _, ok = release_probabilities(0, 1, [[np.nan], [np.nan], [np.nan], [np.nan]])
        assert not ok.any()

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

    @pytest.mark.parametrize("n,m", [(63, 1), (64, 0), (32, 32), (40, 24)])
    @pytest.mark.parametrize("delta", [1e-6, 1e-3])
    @pytest.mark.parametrize("s", [1.0, 0.5])
    def test_variance_near_a_deterministic_split(self, n, m, delta, s):
        # E[k^2] - E[k]^2 was 14% off at (63, 1), delta = 1e-6, s = 1
        fock_input, transfer = FockInput(n, m, GramMatrix(s)), magnetic_phase_matrix(delta)
        variance = release_distribution(fock_input, transfer).variance()
        assert variance == pytest.approx(release_variance(fock_input, transfer), rel=1e-12, abs=0.0)

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


def reference_unit_overlap(n, m, transfer):
    """The per-count alternating binomial sum that the Wigner-d kernel
    replaced, frozen as a reference for photon numbers where it is still
    accurate: raw count probabilities at unit overlap."""
    def powers(base, count):
        out = np.empty(count, dtype=complex)
        out[0] = 1.0
        if count > 1:
            np.cumprod(np.full(count - 1, base, dtype=complex), out=out[1:])
        return out

    total = n + m
    p11, p21 = powers(transfer.s11, n + 1), powers(transfer.s21, n + 1)
    p12, p22 = powers(transfer.s12, m + 1), powers(transfer.s22, m + 1)
    comb_n = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    comb_m = np.array([math.comb(m, j) for j in range(m + 1)], dtype=float)
    probs = np.empty(total + 1, dtype=float)
    base = math.factorial(n) * math.factorial(m)
    for i in range(total + 1):
        k = np.arange(max(0, i - m), min(n, i) + 1)
        terms = comb_n[k] * comb_m[i - k] * p11[k] * p21[n - k] * p12[i - k] * p22[m - i + k]
        amplitude = complex(terms.sum())
        weight = math.factorial(i) * math.factorial(total - i) / base
        probs[i] = weight * (amplitude.real ** 2 + amplitude.imag ** 2)
    return probs


def reference_mixture(n, m, s, transfer, unit_overlap=reference_unit_overlap):
    """The per-point partial-overlap mixture, row by row with np.convolve, over
    unit_overlap(n, l, transfer): by default the frozen sum above."""
    s_sq, routed = abs(s) ** 2, abs(transfer.s12) ** 2
    probs = np.zeros(n + m + 1)
    for shared in range(m + 1):
        weight = math.comb(m, shared) * s_sq ** shared * (1.0 - s_sq) ** (m - shared)
        if weight:
            binomial = [math.comb(m - shared, j) * routed ** j * (1.0 - routed) ** (m - shared - j)
                        for j in range(m - shared + 1)]
            probs += weight * np.convolve(unit_overlap(n, shared, transfer), binomial)
    return probs


def kernel_unit_overlap(n, m, transfer):
    """The kernel's unit-overlap route at one point, exact to 1e-14 up to the
    cap (TestUpToTheCap), where the frozen sum loses digits."""
    entries = [[transfer.s11], [transfer.s12], [transfer.s21], [transfer.s22]]
    return release_probabilities(n, m, entries)[0][0]


def exact_unit_overlap(n, m, a, b, c):
    """Count probabilities as exact fractions for the transfer matrix
    [[a, b], [-b, a]] / c with a^2 + b^2 = c^2, from the integer
    coefficients of (a x - b)^n (b x + a)^m."""
    total = n + m
    probs = []
    for i in range(total + 1):
        coefficient = sum(math.comb(n, k) * math.comb(m, i - k) * a ** k * (-b) ** (n - k)
                          * b ** (i - k) * a ** (m - i + k) for k in range(max(0, i - m), min(n, i) + 1))
        probs.append(Fraction(math.factorial(i) * math.factorial(total - i) * coefficient ** 2,
                              math.factorial(n) * math.factorial(m) * c ** (2 * total)))
    return probs


def exact_mixture(n, m, s_sq, a, b, c):
    """The partial-overlap mixture as exact fractions, at the squared overlap
    s_sq (a Fraction) and the transfer of exact_unit_overlap; each
    convolution runs on integer numerators."""
    probs = [Fraction(0)] * (n + m + 1)
    for shared in range(m + 1):
        rest = m - shared
        scale = math.factorial(n) * math.factorial(shared) * c ** (2 * (n + shared))
        unit = [int(p * scale) for p in exact_unit_overlap(n, shared, a, b, c)]
        spread = [math.comb(rest, j) * b ** (2 * j) * (c * c - b * b) ** (rest - j) for j in range(rest + 1)]
        weight = math.comb(m, shared) * s_sq ** shared * (1 - s_sq) ** rest / (scale * c ** (2 * rest))
        convolved = [0] * (n + m + 1)
        for i, u in enumerate(unit):
            for j, v in enumerate(spread):
                convolved[i + j] += u * v
        probs = [p + weight * q for p, q in zip(probs, convolved)]
    return probs


def photon_pairs_up_to(cap):
    return st.integers(0, cap).flatmap(lambda total: st.tuples(st.integers(0, total), st.just(total)))


photon_pairs = photon_pairs_up_to(64)
stage_points = st.lists(st.tuples(*[st.floats(-7, 7, allow_nan=False)] * 6), min_size=1, max_size=6)


class TestArrayKernel:
    @given(photon_pairs_up_to(16), stage_points)
    @settings(max_examples=80, deadline=None)
    def test_unit_overlap_matches_the_per_count_loop(self, pair, points):
        n, m = pair[0], pair[1] - pair[0]
        transfers = [build_transfer_matrix(StageAngles(*p[:3]), StageAngles(*p[3:])) for p in points]
        raw, _ = release_probabilities(n, m, transfer_entries(*np.array(points).T))
        for row, transfer in zip(raw, transfers):
            assert np.allclose(row, reference_unit_overlap(n, m, transfer), rtol=0.0, atol=1e-13)

    @given(photon_pairs_up_to(16), stage_points,
           st.floats(0.0, 1.0 - 2e-8) | st.sampled_from([0.0, 0.5, 1.0 - 2e-8]))
    @settings(max_examples=60, deadline=None)
    def test_partial_overlap_matches_the_per_point_mixture(self, pair, points, s):
        n, m = pair[0], pair[1] - pair[0]
        transfers = [build_transfer_matrix(StageAngles(*p[:3]), StageAngles(*p[3:])) for p in points]
        raw, _ = release_probabilities(n, m, transfer_entries(*np.array(points).T), s)
        for row, transfer in zip(raw, transfers):
            assert np.allclose(row, reference_mixture(n, m, s, transfer), rtol=0.0, atol=1e-13)

    @given(photon_pairs, st.lists(st.floats(0, 2 * np.pi), min_size=1, max_size=8),
           st.lists(st.sampled_from([1.0, 1.0 - 5e-9, 1.0 - 1e-8, 1.0 - 2e-8, 0.7, 0.0]),
                    min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_grid_rows_are_the_single_point_distributions(self, pair, deltas, overlaps):
        n, m = pair[0], pair[1] - pair[0]
        size = min(len(deltas), len(overlaps))
        deltas, overlaps = np.array(deltas[:size]), np.array(overlaps[:size])
        probs, ok = release_probabilities(n, m, magnetic_phase_entries(deltas), overlaps)
        for row, good, delta, s in zip(probs, ok, deltas, overlaps):
            fock_input = FockInput(n, m, GramMatrix(s))
            try:
                single = release_distribution(fock_input, magnetic_phase_matrix(delta)).probabilities
            except InternalConsistencyError:
                assert not good
                continue
            assert good
            assert np.clip(row, 0.0, 1.0).tobytes() == single.tobytes()

    def test_grid_larger_than_a_chunk(self, rng):
        size = GRID_CHUNK + 57
        points = rng.uniform(-7, 7, size=(6, size))
        overlaps = np.where(rng.random(size) < 0.5, 1.0, rng.uniform(0, 1, size))
        entries = transfer_entries(*points)
        raw, ok = release_probabilities(5, 3, entries, overlaps)
        assert ok.all()
        for k, row in enumerate(raw):
            single, _ = release_probabilities(5, 3, entries[:, k:k + 1], overlaps[k])
            assert row.tobytes() == single[0].tobytes()

    @pytest.mark.parametrize("n,m", [(0, 0), (5, 3), (32, 32), (0, 64), (63, 1)])
    def test_mixture_layers_are_the_unit_overlap_rows(self, n, m, rng):
        entries = transfer_entries(*rng.uniform(-7, 7, size=(6, 20)))
        stack = fock_interference._unit_overlap_stack(n, m, entries)
        for shared, layer in enumerate(stack):
            unit = fock_interference._unit_overlap_block(n, shared, entries)
            assert np.ascontiguousarray(layer[:, :n + shared + 1]).tobytes() == unit.tobytes()
            assert not layer[:, n + shared + 1:].any()

    def test_failed_guard_names_the_route(self, monkeypatch):
        unit, partial = FockInput(32, 32), FockInput(32, 32, GramMatrix(0.9))
        release_distribution_unit_overlap(unit, magnetic_phase_matrix(1.3))
        release_distribution(partial, magnetic_phase_matrix(1.3))
        overshoot_unit_overlap(monkeypatch, lambda entries: np.ones(entries.shape[1], dtype=bool))
        with pytest.raises(InternalConsistencyError, match=r"\(unit-overlap closed form\)"):
            release_distribution_unit_overlap(unit, magnetic_phase_matrix(1.3))
        with pytest.raises(InternalConsistencyError, match=r"\(partial-overlap closed form\)"):
            release_distribution(partial, magnetic_phase_matrix(1.3))


class TestUpToTheCap:
    @pytest.mark.parametrize("a,b,c", [(3, 4, 5), (20, 21, 29)])
    def test_exact_at_pythagorean_transfers(self, a, b, c):
        entries = np.array([[a / c], [b / c], [-b / c], [a / c]])
        for total in (0, 1, 2, 3, 5, 8, 13, 16, 21, 24, 32, 33, 40, 48, 56, 63, 64):
            for n in range(total + 1):
                raw, _ = release_probabilities(n, total - n, entries)
                exact = [float(p) for p in exact_unit_overlap(n, total - n, a, b, c)]
                assert np.allclose(raw[0], exact, rtol=0.0, atol=1e-14), (n, total - n)

    @pytest.mark.parametrize("a,b,c", [(3, 4, 5), (20, 21, 29)])
    @pytest.mark.parametrize("n,m", [(12, 12), (6, 18), (24, 24), (40, 8), (32, 32), (40, 24),
                                     (63, 1), (0, 64), (8, 56)])
    def test_partial_overlap_exact_at_pythagorean_transfers(self, a, b, c, n, m):
        entries = np.array([[a / c], [b / c], [-b / c], [a / c]])
        for s_sq in (Fraction(0), Fraction(1, 4), Fraction(9, 25)):
            raw, ok = release_probabilities(n, m, entries, math.sqrt(s_sq))
            exact = [float(p) for p in exact_mixture(n, m, s_sq, a, b, c)]
            assert ok.all()
            assert np.allclose(raw[0], exact, rtol=0.0, atol=1e-14), s_sq

    @pytest.mark.parametrize("total", [24, 48, 64])
    def test_partial_overlap_is_the_per_point_mixture_up_to_the_cap(self, total, rng):
        for n in (0, 1, total // 4, total // 2, total - 1):
            for s in (0.0, 0.5, 0.9, 1.0 - 2e-8):
                transfer = random_transfer(rng)
                entries = [[transfer.s11], [transfer.s12], [transfer.s21], [transfer.s22]]
                raw, _ = release_probabilities(n, total - n, entries, s)
                expected = reference_mixture(n, total - n, s, transfer, kernel_unit_overlap)
                assert np.allclose(raw[0], expected, rtol=0.0, atol=1e-13), (n, s)

    @pytest.mark.parametrize("n,m", [(32, 32), (40, 24), (63, 1), (0, 64)])
    def test_mixed_chunk_rows_are_the_single_point_rows(self, n, m, rng):
        size = 36
        entries = transfer_entries(*rng.uniform(-7, 7, size=(6, size)))
        overlaps = np.resize([1.0, 0.9, 1.0 - 5e-9, 0.5, 0.0, 1.0 - 2e-8], size)
        raw, _ = release_probabilities(n, m, entries, overlaps)
        for k, row in enumerate(raw):
            single, _ = release_probabilities(n, m, entries[:, k:k + 1], overlaps[k])
            assert row.tobytes() == single[0].tobytes(), (k, overlaps[k])

    @pytest.mark.parametrize("total", [48, 64])
    def test_normalised_at_every_split(self, total):
        entries = magnetic_phase_entries(np.linspace(0.0, 2 * np.pi, 1000))
        for n in range(total + 1):
            raw, ok = release_probabilities(n, total - n, entries)
            assert ok.all()
            assert np.abs(raw.sum(axis=1) - 1.0).max() <= 1e-13, (n, total - n)
