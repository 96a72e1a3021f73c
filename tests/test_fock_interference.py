import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HOM_OVERLAPS, overshoot_unit_overlap, random_transfer
from storedlight import (
    CapacityError,
    FockInput,
    GramMatrix,
    InternalConsistencyError,
    ParameterDomainError,
    ReleaseDistribution,
    StageAngles,
    UndefinedRatioError,
    build_transfer_matrix,
    fano_factor,
    magnetic_phase_matrix,
    mean_release_count,
    release_distribution,
    release_variance,
)
from storedlight import fock_interference
from storedlight.fock_interference import (GRID_CHUNK, MAX_TOTAL_PHOTONS, PROBABILITY_GUARD, SUM_TOL,
                                           release_probabilities)
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

    @pytest.mark.parametrize("probabilities", [[], [[0.5, 0.5]], [[1.0], [0.0]], 1.0])
    def test_rejects_shapes_other_than_a_nonempty_vector(self, probabilities):
        with pytest.raises(ParameterDomainError, match="^probabilities must form a non-empty 1-d vector$"):
            ReleaseDistribution(probabilities)

    def test_rejects_nan(self):
        with pytest.raises(InternalConsistencyError):
            ReleaseDistribution([float("nan"), 0.5])
        _, ok = release_probabilities(0, 1, [[np.nan], [np.nan], [np.nan], [np.nan]])
        assert not ok.any()

    # 1 +- SUM_TOL round to 1 +- 1.0000000083e-10, just outside the tolerance
    SUM_EDGES = [(np.nextafter(1.0 + SUM_TOL, 0.0), True), (1.0 + SUM_TOL, False),
                 (np.nextafter(1.0 + SUM_TOL, 2.0), False), (np.nextafter(1.0 - SUM_TOL, 2.0), True),
                 (1.0 - SUM_TOL, False)]

    @staticmethod
    def guard_rows():
        """Rows of three probabilities at the edges of the guard checks, each
        with the verdict the checks give it."""
        rows = [([0.25, 0.5, total - 0.75], passes) for total, passes in TestReleaseDistribution.SUM_EDGES]
        low, high = -PROBABILITY_GUARD, 1.0 + PROBABILITY_GUARD
        rows += [([low, 0.5, 0.5 + PROBABILITY_GUARD], True),
                 ([np.nextafter(low, -1.0), 0.5, 0.5 + PROBABILITY_GUARD], False),
                 ([high, -PROBABILITY_GUARD, 0.0], True),
                 ([np.nextafter(high, 2.0), -PROBABILITY_GUARD, 0.0], False)]
        rows += [([bad, 0.5, 0.5], False) for bad in (np.nan, np.inf, -np.inf)]
        rows += [([0.5, 0.5, bad], False) for bad in (np.nan, np.inf, -np.inf)]
        return rows

    def test_guard_edges(self):
        rows = self.guard_rows()
        # the sums are the edges themselves
        for (row, _), (total, _) in zip(rows, self.SUM_EDGES):
            assert np.add.reduce(row) == total
        for row, passes in rows:
            if passes:
                assert ReleaseDistribution(row).probabilities.tolist() == np.clip(row, 0.0, 1.0).tolist()
            else:
                with pytest.raises(InternalConsistencyError):
                    ReleaseDistribution(row)

    def test_kernel_mask_keeps_the_guard_edges(self, monkeypatch):
        rows = self.guard_rows()
        block = np.array([row for row, _ in rows])
        # release_probabilities at unit overlap takes the stack's last layer as its rows
        monkeypatch.setattr(fock_interference, "_unit_overlap_stack", lambda n, m, entries, lowest=0: block[None])
        raw, passed = release_probabilities(1, 1, np.ones((4, len(rows)), dtype=complex))
        assert raw.tobytes() == block.tobytes()
        assert passed.tolist() == [passes for _, passes in rows]

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

    @pytest.mark.parametrize("overlap", [1.0, 0.5j, None])
    def test_rejects_an_overlap_that_is_not_a_gram_matrix(self, overlap):
        with pytest.raises(ParameterDomainError, match="^overlap must be a GramMatrix$"):
            FockInput(1, 1, overlap)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError) as info:
            FockInput(40, 40)
        assert info.value.required == 80
        assert FockInput(32, 32).total == 64

    @pytest.mark.parametrize("n,m,error,message", [
        (-1, 3, ParameterDomainError, "^photon number n must be >= 0, got -1$"),
        (3, -1, ParameterDomainError, "^photon number m must be >= 0, got -1$"),
        (1.0, 2, ParameterDomainError, "^photon number n must be an integer, got 1.0$"),
        (2, True, ParameterDomainError, "^photon number m must be an integer, got True$"),
        (0, 65, CapacityError, "^total photon number 65 exceeds the cap of 64$"),
    ])
    def test_the_kernel_checks_photon_numbers_as_fock_input_does(self, n, m, error, message):
        # unchecked, n = -1 reads as a shorter total, m = -1 indexes out of
        # range and 65 photons run past the cap
        entries = magnetic_phase_entries(np.array([0.7]))
        with pytest.raises(error, match=message) as from_input:
            FockInput(n, m)
        with pytest.raises(error, match=message) as from_kernel:
            release_probabilities(n, m, entries)
        if error is CapacityError:
            assert from_input.value.required == from_kernel.value.required == 65

    def test_default_overlap_is_unit(self):
        assert FockInput(1, 1).overlap.is_unit_overlap()


class TestReleaseDistributionUnitOverlap:
    def test_identity_keeps_input(self):
        identity = build_transfer_matrix(StageAngles(0, 0, 0), StageAngles(0, 0, 0))
        dist = release_distribution(FockInput(3, 2), identity)
        assert np.allclose(dist.probabilities, [0, 0, 0, 1, 0, 0], atol=1e-14)

    def test_full_swap_moves_input(self):
        dist = release_distribution(FockInput(3, 2), magnetic_phase_matrix(np.pi))
        assert np.allclose(dist.probabilities, [0, 0, 1, 0, 0, 0], atol=1e-14)

    def test_single_photon_routing(self, rng):
        for _ in range(10):
            transfer = random_transfer(rng)
            from_one = release_distribution(FockInput(1, 0), transfer)
            assert np.allclose(from_one.probabilities,
                               [abs(transfer.s21) ** 2, abs(transfer.s11) ** 2], atol=1e-13)
            from_two = release_distribution(FockInput(0, 1), transfer)
            assert np.allclose(from_two.probabilities,
                               [abs(transfer.s22) ** 2, abs(transfer.s12) ** 2], atol=1e-13)

    def test_pair_coincidence_follows_cos_squared(self, rng):
        # one photon per channel through the magnetic splitter
        for delta in rng.uniform(0, 2 * np.pi, size=25):
            dist = release_distribution(
                FockInput(1, 1), magnetic_phase_matrix(delta))
            assert np.allclose(dist[1], np.cos(delta) ** 2, atol=1e-13)

    def test_pair_coincidence_from_mixing_angles(self, rng):
        # with every control phase zero the coincidence probability follows
        # twice the mixing-angle difference, not the difference itself
        for phi0, phi1 in rng.uniform(0, 2 * np.pi, size=(25, 2)):
            transfer = build_transfer_matrix(
                StageAngles(phi1, 0.0, 0.0), StageAngles(phi0, 0.0, 0.0))
            dist = release_distribution(FockInput(1, 1), transfer)
            assert np.allclose(dist[1], np.cos(2 * (phi1 - phi0)) ** 2, atol=1e-12)

    def test_coalescence_at_quarter_period(self):
        dist = release_distribution(
            FockInput(1, 1), magnetic_phase_matrix(np.pi / 2))
        assert dist[1] < 1e-14
        assert np.allclose(dist[0], 0.5, atol=1e-13)
        assert np.allclose(dist[2], 0.5, atol=1e-13)

    def test_matches_polynomial_expansion(self, rng):
        for n in range(5):
            for m in range(5):
                transfer = random_transfer(rng)
                dist = release_distribution(FockInput(n, m), transfer)
                assert np.allclose(dist.probabilities,
                                   expansion_distribution(n, m, transfer), atol=1e-12)

    @given(st.integers(0, 6), st.integers(0, 6),
           st.floats(-7, 7, allow_nan=False), st.floats(-7, 7, allow_nan=False),
           st.floats(-7, 7, allow_nan=False), st.floats(-7, 7, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_is_a_probability_vector(self, n, m, p0, c2, p1, c21):
        transfer = build_transfer_matrix(StageAngles(p0, c2, 0.0), StageAngles(p1, c21, 0.0))
        dist = release_distribution(FockInput(n, m), transfer)
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
            want = release_distribution(FockInput(3, 2), transfer).probabilities
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
            unit = release_distribution(FockInput(n, m), transfer)
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
            dist = release_distribution(fock_input, transfer)
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


def per_call_exponent_stack(n, m, entries, lowest=0):
    """_unit_overlap_stack with its phase exponents built on every call from
    a half-step arange, the construction its exponent table replaced."""
    beta = 2.0 * np.arctan2(np.abs(entries[1]), np.abs(entries[0]))
    size, step = n + m, 1 if lowest < m else 2
    phases = np.exp(-1j * np.multiply.outer(beta, np.arange(-size, size + 1, step) / 2))
    columns = np.zeros((m + 1 - lowest, entries.shape[1], size + 1), dtype=complex)
    for shared in range(lowest, m + 1):
        total = n + shared
        vectors = fock_interference._jy_eigenvectors(total)
        scaled = phases[:, (size - total) // step:(size + total) // step + 1:2 // step] * vectors[n].conj()
        np.add.reduce(vectors * scaled[:, None, :], axis=-1, out=columns[shared - lowest, :, :total + 1])
    return columns.real ** 2 + columns.imag ** 2


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

    @given(photon_pairs, st.lists(st.floats(0, 2 * np.pi), min_size=1, max_size=5),
           st.lists(st.sampled_from(HOM_OVERLAPS), min_size=1, max_size=6), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_transfer_by_overlap_grid_is_the_per_point_call(self, pair, deltas, overlaps, overlap_first):
        # a transfer axis and an overlap axis, in either order: each cell is
        # the one-point kernel and, where it passes, the public distribution
        n, m = pair[0], pair[1] - pair[0]
        entries, overlaps = magnetic_phase_entries(np.array(deltas)), np.array(overlaps)
        if overlap_first:
            raw, ok = release_probabilities(n, m, entries[:, None, :], overlaps[:, None])
            raw, ok = raw.swapaxes(0, 1), ok.T
        else:
            raw, ok = release_probabilities(n, m, entries[:, :, None], overlaps)
        assert raw.shape == (len(deltas), len(overlaps), n + m + 1)
        for (t, k), good in np.ndenumerate(ok):
            single, single_ok = release_probabilities(n, m, entries[:, t:t + 1], overlaps[k])
            assert raw[t, k].tobytes() == single[0].tobytes() and good == single_ok[0]
            if good:
                fock_input = FockInput(n, m, GramMatrix(overlaps[k]))
                row = release_distribution(fock_input, magnetic_phase_matrix(deltas[t])).probabilities
                assert np.clip(raw[t, k], 0.0, 1.0).tobytes() == row.tobytes()

    @pytest.mark.parametrize("overlap_first", [False, True])
    @pytest.mark.parametrize("n,m", [(6, 6), (32, 32), (0, 64), (64, 0), (63, 1)])
    def test_overlaps_all_at_unit_take_the_unit_form(self, n, m, overlap_first):
        # an array of overlaps runs the mixture, whose layer sums are longest
        # at the cap; at |s| = 1 it gives the number route's unit rows bit for bit
        entries = magnetic_phase_entries(np.linspace(0.0, np.pi, 5))
        overlaps = np.array([1.0, 1.0 - 5e-9, 1.0 + 1e-13])
        unit, _ = release_probabilities(n, m, entries, 1.0)
        if overlap_first:
            raw, ok = release_probabilities(n, m, entries[:, None, :], overlaps[:, None])
            expected = np.repeat(unit[None], 3, axis=0)
        else:
            raw, ok = release_probabilities(n, m, entries[:, :, None], overlaps)
            expected = np.repeat(unit[:, None], 3, axis=1)
        assert ok.all() and raw.flags.writeable and raw.shape == expected.shape
        assert raw.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("s", [1.0 + 1e-6, 1.0 + 1e-9, -0.5, np.nan])
    def test_overlap_outside_its_domain_fails_the_mask(self, s, m):
        # at m = 0 the row is the same at every overlap, so only the domain test fails it
        entries = magnetic_phase_entries(np.array([0.7, 1.3]))
        _, ok = release_probabilities(3, m, entries, s)
        assert not ok.any()
        _, ok = release_probabilities(3, m, entries, np.array([s, 0.5]))
        assert ok.tolist() == [False, True]
        _, ok = release_probabilities(3, m, entries[:, :, None], np.array([s, 1.0, 1.0 + 1e-13, 0.5]))
        assert ok.tolist() == [[False, True, True, True]] * 2

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

    @pytest.mark.parametrize("s", [1.0, 0.6])
    def test_number_overlap_across_a_chunk_boundary(self, s, rng):
        # a transfer that fails unitarity in each chunk puts a False in the mask
        entries = transfer_entries(*rng.uniform(-7, 7, size=(6, GRID_CHUNK + 57)))
        entries[:, [5, GRID_CHUNK + 3]] = np.nan
        raw, ok = release_probabilities(5, 3, entries, s)
        assert raw.shape == (GRID_CHUNK + 57, 9) and ok.sum() == GRID_CHUNK + 55
        for k, (row, good) in enumerate(zip(raw, ok)):
            single, single_ok = release_probabilities(5, 3, entries[:, k:k + 1], s)
            assert row.tobytes() == single[0].tobytes() and good == single_ok[0]

    @pytest.mark.parametrize("s", [1.0, 0.5])
    def test_zero_transfers(self, s):
        entries = np.empty((4, 0), dtype=complex)
        raw, ok = release_probabilities(3, 2, entries, s)
        assert (raw.shape, ok.shape) == ((0, 6), (0,))
        overlaps = np.array([s, 0.2, 1.0])
        raw, ok = release_probabilities(3, 2, entries[:, :, None], overlaps)
        assert (raw.shape, ok.shape) == ((0, 3, 6), (0, 3))
        raw, ok = release_probabilities(3, 2, entries[:, :, None], np.full(3, s))
        assert (raw.shape, ok.shape) == ((0, 3, 6), (0, 3))

    def test_overlap_by_transfer_grid_over_several_chunks(self, rng):
        # transfers on the last axis: each chunk of them serves points spread over the whole grid
        entries = transfer_entries(*rng.uniform(-7, 7, size=(6, 2 * GRID_CHUNK + 57)))
        overlaps = np.array([0.4, 1.0, 0.95])
        raw, ok = release_probabilities(5, 3, entries[:, None, :], overlaps[:, None])
        assert ok.all() and raw.shape == (3, entries.shape[1], 9)
        for (k, t), _ in np.ndenumerate(ok):
            single, _ = release_probabilities(5, 3, entries[:, t:t + 1], overlaps[k])
            assert raw[k, t].tobytes() == single[0].tobytes()

    @pytest.mark.parametrize("n,m", [(0, 0), (5, 3), (32, 32), (0, 64), (63, 1)])
    def test_mixture_layers_are_the_unit_overlap_rows(self, n, m, rng):
        entries = transfer_entries(*rng.uniform(-7, 7, size=(6, 20)))
        stack = fock_interference._unit_overlap_stack(n, m, entries)
        for shared, layer in enumerate(stack):
            unit = fock_interference._unit_overlap_stack(n, shared, entries, shared)[0]
            assert np.ascontiguousarray(layer[:, :n + shared + 1]).tobytes() == unit.tobytes()
            assert not layer[:, n + shared + 1:].any()

    @pytest.mark.parametrize("size", range(MAX_TOTAL_PHOTONS + 1))
    def test_stack_is_the_per_call_exponent_stack(self, size, rng):
        # bit for bit: exponents one ulp off fail here at every size above 0,
        # where the CSV digests see them only at the totals they pin.  Every
        # split runs whole and top layer alone on one random transfer, and top
        # layer alone on 65 random ones plus the exact identity and swap;
        # every split of a size slices the same exponents for its whole stack,
        # so the 65 run one whole stack per size, at m = 1
        exact = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 0.0]])
        one = transfer_entries(*rng.uniform(-7, 7, size=(6, 1)))
        many = np.hstack([transfer_entries(*rng.uniform(-7, 7, size=(6, 65))), exact])
        cases = [(n, size - n, lowest, entries) for n in range(size + 1)
                 for lowest, entries in ((0, one), (size - n, one), (size - n, many))]
        for n, m, lowest, entries in cases + [(size - 1, 1, 0, many)] * (size > 0):
            expected = per_call_exponent_stack(n, m, entries, lowest)
            assert fock_interference._unit_overlap_stack(n, m, entries, lowest).tobytes() == expected.tobytes()

    def test_failed_guard_names_the_route(self, monkeypatch):
        unit, partial = FockInput(32, 32), FockInput(32, 32, GramMatrix(0.9))
        release_distribution(unit, magnetic_phase_matrix(1.3))
        release_distribution(partial, magnetic_phase_matrix(1.3))
        overshoot_unit_overlap(monkeypatch, lambda entries: np.ones(entries.shape[1], dtype=bool))
        with pytest.raises(InternalConsistencyError, match=r"\(unit-overlap closed form\)"):
            release_distribution(unit, magnetic_phase_matrix(1.3))
        with pytest.raises(InternalConsistencyError, match=r"\(partial-overlap closed form\)"):
            release_distribution(partial, magnetic_phase_matrix(1.3))

    @given(photon_pairs, st.tuples(*[st.floats(-7, 7, allow_nan=False)] * 6),
           st.sampled_from([1.0, 1.0 - 5e-9, 0.9, 0.5, 0.0]) | st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_release_distribution_checks_once(self, pair, angles, s):
        # the mask's row is the distribution the public constructor validates
        n, m = pair[0], pair[1] - pair[0]
        transfer = build_transfer_matrix(StageAngles(*angles[:3]), StageAngles(*angles[3:]))
        entries = np.array([[transfer.s11], [transfer.s12], [transfer.s21], [transfer.s22]])
        probabilities = release_distribution(FockInput(n, m, GramMatrix(s)), transfer).probabilities
        checked = ReleaseDistribution(release_probabilities(n, m, entries, s)[0][0]).probabilities
        assert probabilities.tobytes() == checked.tobytes()
        assert not probabilities.flags.writeable

    def test_failing_row_raises_the_full_message(self, monkeypatch):
        # a row inside [0, 1] that sums to 1.5 fails only the normalisation check
        monkeypatch.setattr(fock_interference, "_unit_overlap_stack", lambda n, m, entries, lowest=0:
                            np.full((m + 1 - lowest, entries.shape[1], n + m + 1), 1.5 / (n + m + 1)))
        with pytest.raises(InternalConsistencyError) as raised:
            release_distribution(FockInput(3, 2), magnetic_phase_matrix(1.3))
        assert str(raised.value) == ("probabilities sum to 1.500000000000, expected 1 within 1.0e-10 "
                                     "(unit-overlap closed form)")


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
