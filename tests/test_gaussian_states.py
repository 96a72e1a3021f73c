import math

import numpy as np
import pytest

from conftest import random_transfer
from storedlight import (
    InternalConsistencyError,
    ParameterDomainError,
    QuadratureStats,
    SqueezedInput,
    StageAngles,
    build_transfer_matrix,
    gaussian_oracle,
    released_quadratures,
    uncertainty_product,
)
from storedlight.gaussian_states import (
    VACUUM_VARIANCE,
    cosh_sinh,
    quadrature_moments,
    squeezed_covariance_block,
    symplectic_eigenvalues,
    transfer_symplectic,
)

IDENTITY = build_transfer_matrix(StageAngles(0, 0, 0), StageAngles(0, 0, 0))


def stats_tuple(stats):
    return np.array([stats.mean_q, stats.mean_p, stats.var_q, stats.var_p])


class TestReleasedQuadratures:
    def test_vacuum_through_identity(self):
        stats = released_quadratures(SqueezedInput(0, 0, 0.0, 0.0), IDENTITY)
        assert np.allclose(stats_tuple(stats), [0, 0, 0.5, 0.5], atol=1e-14)

    def test_squeezed_vacuum_variances(self):
        for r in (0.3, 1.0, -0.7):
            stats = released_quadratures(SqueezedInput(0, 0, r, 0.0), IDENTITY)
            assert np.allclose(stats.var_q, np.exp(-2 * r) / 2, atol=1e-13)
            assert np.allclose(stats.var_p, np.exp(2 * r) / 2, atol=1e-13)

    def test_coherent_displacement_moves_means_only(self):
        alpha = 0.8 - 1.3j
        stats = released_quadratures(SqueezedInput(alpha, 0, 0.0, 0.0), IDENTITY)
        assert np.allclose(stats.mean_q, np.sqrt(2) * alpha.real, atol=1e-13)
        assert np.allclose(stats.mean_p, np.sqrt(2) * alpha.imag, atol=1e-13)
        assert np.allclose([stats.var_q, stats.var_p], 0.5, atol=1e-13)

    def test_variances_ignore_displacements(self, rng):
        for _ in range(10):
            transfer = random_transfer(rng)
            first = released_quadratures(SqueezedInput(0.4 + 0.2j, -1.1j, 0.8, 0.5), transfer)
            second = released_quadratures(SqueezedInput(-2.0, 1.0 + 1.0j, 0.8, 0.5), transfer)
            assert np.allclose([first.var_q, first.var_p],
                               [second.var_q, second.var_p], atol=1e-13)

    def test_matches_gaussian_oracle(self, rng):
        for _ in range(20):
            inputs = SqueezedInput(
                complex(*rng.normal(0, 1.5, 2)), complex(*rng.normal(0, 1.5, 2)),
                rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            transfer = random_transfer(rng)
            for channel in (1, 2):
                direct = released_quadratures(inputs, transfer, channel=channel)
                oracle = gaussian_oracle(inputs, transfer, channel=channel)
                assert np.allclose(stats_tuple(direct), stats_tuple(oracle), atol=1e-11)

    def test_coherent_inputs_stay_at_the_vacuum_limit(self, rng):
        # no squeezing: every released quadrature variance is exactly 1/2
        for _ in range(5):
            stats = released_quadratures(
                SqueezedInput(1.0 + 2.0j, -0.5j, 0.0, 0.0), random_transfer(rng))
            assert np.allclose([stats.var_q, stats.var_p], VACUUM_VARIANCE, atol=1e-13)
            assert uncertainty_product(stats) == pytest.approx(0.25, abs=1e-13)

    def test_uncertainty_product_never_below_quarter(self, rng):
        for _ in range(50):
            inputs = SqueezedInput(0, 0, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            stats = released_quadratures(inputs, random_transfer(rng))
            assert uncertainty_product(stats) >= 0.25 - 1e-12


def scalar_moments(inputs, transfer):
    """The closed form as one scalar evaluation with Python complex numbers
    and math, the reference the kernel must round like."""
    moments = []
    for factor in (1.0, -1j):
        c1, c2 = factor * transfer.s11, factor * transfer.s12
        u1 = complex(c1.real * math.exp(-inputs.r1), c1.imag * math.exp(inputs.r1))
        u2 = complex(c2.real * math.exp(-inputs.r2), c2.imag * math.exp(inputs.r2))
        mean = math.sqrt(2.0) * (u1 * inputs.alpha1 + u2 * inputs.alpha2).real
        variance = 0.5 * ((u1.real * u1.real + u1.imag * u1.imag) + (u2.real * u2.real + u2.imag * u2.imag))
        moments += [mean, variance]
    return np.array([moments[0], moments[2], moments[1], moments[3]])


class TestGridKernel:
    def test_rounds_like_the_scalar_closed_form(self, rng):
        # displaced inputs and zero parts of either sign, where numpy's fused
        # complex products would move 12-digit cells
        for _ in range(2000):
            parts = np.where(rng.random(4) < 0.2, rng.choice([0.0, -0.0], 4), rng.normal(0, 2, 4))
            inputs = SqueezedInput(complex(*parts[:2]), complex(*parts[2:]), *rng.normal(0, 1, 2))
            transfer = IDENTITY if rng.random() < 0.1 else random_transfer(rng)
            assert (stats_tuple(released_quadratures(inputs, transfer)).tobytes()
                    == scalar_moments(inputs, transfer).tobytes())

    def test_rows_are_the_single_point_moments(self, rng):
        # bit for bit, signed zeros included, at any number of points
        transfers = [random_transfer(rng) for _ in range(300)]
        row = np.array([[t.s11 for t in transfers], [t.s12 for t in transfers]])
        r1, r2 = rng.uniform(-1.5, 1.5, (2, 300))
        alpha1 = rng.normal(0, 1.5, (2, 300))
        alpha2 = np.where(rng.random((2, 300)) < 0.3, -0.0, rng.normal(0, 1.5, (2, 300)))
        moments, passed = quadrature_moments(row, r1, r2, tuple(alpha1), tuple(alpha2))
        assert passed.all()
        for k, transfer in enumerate(transfers):
            inputs = SqueezedInput(complex(*alpha1[:, k]), complex(*alpha2[:, k]), r1[k], r2[k])
            assert moments[:, k].tobytes() == stats_tuple(released_quadratures(inputs, transfer)).tobytes()

    def test_mask_rejects_overflow_and_the_guards(self):
        # rows 1-4 are the identity row at growing r1; row 5 is too short for
        # the Heisenberg bound and row 6 zero
        moments, passed = quadrature_moments(np.array([[1.0] * 4 + [0.5, 0.0], [0.0] * 6]),
                                             np.array([0.2, 1000.0, 40.0, 18.0, 0.0, 0.0]), 0.0,
                                             (0.0, 0.0), (0.0, 0.0))
        assert passed.tolist() == [True, False, True, True, False, False]
        assert not np.isfinite(moments[:, 1]).all()
        assert moments[2:, 4].tolist() == [0.125, 0.125] and moments[2:, 5].tolist() == [0.0, 0.0]

    def test_zero_weight_survives_an_overflowing_scale(self):
        # an exactly zero entry times e^(|r2|) = inf contributes 0, not nan;
        # -0.0 keeps its sign as it would under a finite scale
        row = np.array([[1.0, 1.0, 1.0], [0.0, -0.0, 0.0]])
        moments, passed = quadrature_moments(row, 0.2, np.array([1000.0, -1000.0, 0.0]),
                                             (0.3, 0.0), (1.0, -2.0))
        assert passed.all()
        assert moments[:, 0].tobytes() == moments[:, 2].tobytes()
        assert moments[:, 1].tobytes() == moments[:, 2].tobytes()

    def test_squeezing_keeps_its_digits(self):
        # var_q = e^(-2 r)/2 and var_p = e^(2 r)/2 with no cosh - sinh to cancel:
        # each is the rounded square of math.exp, halved exactly
        r = np.array([10.0, 15.0, 18.0, 40.0, 300.0, -40.0])
        moments, passed = quadrature_moments(np.array([[1.0] * 6, [0.0] * 6]), r, 0.0, (0.0, 0.0),
                                             (0.0, 0.0))
        assert passed.all()
        assert moments[2].tolist() == [0.5 * (math.exp(-x) * math.exp(-x)) for x in r.tolist()]
        assert moments[3].tolist() == [0.5 * (math.exp(x) * math.exp(x)) for x in r.tolist()]
        # e^(-20)/2 to 40 digits
        assert abs(moments[2, 0] / 1.030576811219278913982970190077910488188e-09 - 1) < 4e-16

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(ParameterDomainError, match="overflow"):
            released_quadratures(SqueezedInput(0, 0, 1000.0, 0.0), IDENTITY)
        stats = released_quadratures(SqueezedInput(0, 0, 300.0, -300.0), build_transfer_matrix(
            StageAngles(0, 0, 0), StageAngles(0.7, 0, 0)))
        with pytest.raises(ParameterDomainError, match="overflows"):
            uncertainty_product(stats)

    def test_hyperbolic_functions_are_maths(self, rng):
        r = np.concatenate([rng.normal(0, 3, 1000), [0.0, -0.0, 710.0, 711.0, -711.0]])
        cosh, sinh = cosh_sinh(r)
        assert cosh.shape == sinh.shape == r.shape
        with np.errstate(over="ignore"):
            expected = [(math.cosh(x), math.sinh(x)) if abs(x) < 711 else (np.cosh(x), np.sinh(x))
                        for x in r.tolist()]
        assert np.array(expected).T.tobytes() == np.array([cosh, sinh]).tobytes()
        assert [float(x) for x in cosh_sinh(0.5)] == [math.cosh(0.5), math.sinh(0.5)]


class TestValidation:
    def test_complex_squeezing_is_rejected(self):
        with pytest.raises(ParameterDomainError):
            SqueezedInput(0, 0, 0.5 + 0.1j, 0.0)

    def test_quadrature_stats_guard(self):
        with pytest.raises(InternalConsistencyError):
            QuadratureStats(0.0, 0.0, 0.1, 0.1)
        with pytest.raises(InternalConsistencyError):
            QuadratureStats(0.0, 0.0, -0.5, 1.0)


class TestSymplecticHelpers:
    def test_transfer_image_preserves_the_form(self, rng):
        omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        for _ in range(10):
            symplectic = transfer_symplectic(random_transfer(rng))
            assert np.allclose(symplectic @ omega @ symplectic.T, omega, atol=1e-12)

    def test_vacuum_covariance_eigenvalues(self):
        cov = np.kron(np.eye(2), squeezed_covariance_block(0.0))
        assert np.allclose(symplectic_eigenvalues(cov), [0.5, 0.5], atol=1e-12)

    def test_squeezing_keeps_purity(self):
        cov = np.kron(np.eye(2), squeezed_covariance_block(0.9))
        assert np.allclose(symplectic_eigenvalues(cov), [0.5, 0.5], atol=1e-12)
        block = squeezed_covariance_block(0.9)
        assert np.allclose(np.linalg.det(block), 0.25, atol=1e-13)
