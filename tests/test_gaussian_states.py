import math

import numpy as np
import pytest

from conftest import LARGE_PHASES, large_phase_stages, random_transfer
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
from storedlight.gaussian_states import _scaled, elementwise, quadrature_moments
from storedlight.mode_transform import transfer_entries
from storedlight.oracles import (
    VACUUM_VARIANCE,
    squeezed_covariance_block,
    stage_transfer,
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

    @pytest.mark.parametrize("chi21", LARGE_PHASES)
    @pytest.mark.parametrize("swap", [False, True])
    def test_matches_the_oracle_on_its_own_transfer_at_large_control_phases(self, chi21, swap):
        # the oracle's transfer is a product of phasors, the closed form's
        # carries the rounding error of each phase difference; mean_p of
        # channel 1 cancels to 7e-4 at chi20 = 1e8, hence the absolute floor
        storage, release = large_phase_stages(chi21, swap)
        inputs = SqueezedInput(1.0, 2.0j, 0.4, -0.3)
        for channel in (1, 2):
            direct = released_quadratures(inputs, build_transfer_matrix(storage, release), channel=channel)
            oracle = gaussian_oracle(inputs, stage_transfer(storage, release), channel=channel)
            assert stats_tuple(oracle) == pytest.approx(stats_tuple(direct), rel=1e-12, abs=1e-15)

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


class TestScaled:
    PARTS = np.array([0.0, -0.0, math.nan, 5e-324, -5e-324, 2.2e-308, -1e-310, 0.75, -3.0e200])

    @pytest.mark.parametrize("scale", [
        np.float64(2.5), np.float64(1e-300), np.float64(0.0), np.float64(math.inf),
        np.array([[2.5], [math.inf], [1e-300]]), np.array([[math.exp(700.0)], [0.5]]),
    ])
    def test_is_the_substituting_product_bit_for_bit(self, scale):
        with np.errstate(all="ignore"):
            expected = np.where(self.PARTS == 0, self.PARTS, self.PARTS * scale)
            got = _scaled(self.PARTS, scale)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


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

    # var_q and var_p to 40 digits from 400-digit mpmath: S11 and S12 built
    # from the six stage angles, u_j = c_j cosh r_j - c_j* sinh r_j with
    # c_j = S1j for q and -i S1j for p, and (|u_1|^2 + |u_2|^2)/2, at these
    # float inputs; columns are r1, r2, (phi0, chi20, chi30, phi1, chi21,
    # chi31), (alpha1_re, alpha1_im, alpha2_re, alpha2_im), var_q and var_p
    @pytest.mark.parametrize("r1,r2,angles,alpha,var_q,var_p", [
        (60.0, 2.19, (4.9742, 4.3543, -3.3398, -5.9192, 6.2505, 1.5931), (-2.98, 2.46, 2.91, -1.28),
         2.079597091136974295854545576192451851132e+51, 1.517289232932597055796816754866255013455e+50),
        (1.88, 60.0, (-5.8463, -0.8641, 4.4479, -1.2777, 0.2485, -5.3614), (1.88, -0.01, -1.51, 1.66),
         1.234062664246238310773412941355612242439e+51, 3.668184609470366739544821161819523381189e+51),
        (-60.0, 2.88, (0.5368, 3.3201, 6.8986, -6.5782, 1.3857, 6.5421), (-2.3, -1.66, 0.3, 1.33),
         1.215598716469697246041728990431019922823e+51, 3.348363159353907913310314296475930887702e+51),
        (0.32, -60.0, (0.6678, -6.2785, 3.3492, -2.5102, -5.9645, 6.4186), (0.96, -0.27, 1.4, -0.13),
         5.73363417732394262254652321683057110878e+51, 9.54135944003020464342997792620016570315e+49),
        (120.0, -2.25, (1.4641, 3.4571, 3.4181, 0.7219, 5.9989, 6.24), (2.25, -0.77, -1.39, 0.18),
         5.384097116117010583409712950050391875513e+102, 4.04591629421561956665531074184677033285e+103),
        (0.93, 120.0, (-4.7517, 0.8325, -0.8547, -6.9767, -1.1364, -1.4014), (2.78, -2.67, 2.57, 2.45),
         4.425607616703575118521541267125896363264e+103, 6.498504375945447860343266243420552738553e+102),
        (-120.0, 0.6, (-4.3788, 4.0783, -4.7387, -2.511, 2.3299, -1.0467), (-0.23, -1.18, -2.78, -0.84),
         1.55872392110289094954154643324913383265e+103, 8.220082315653117953875594213583561335033e+100),
        (1.96, -120.0, (4.6223, -5.8651, 0.7417, -2.0469, -1.4146, 6.8305), (1.86, 0.04, 0.04, 2.5),
         3.288303932770435164261798857557189150352e+102, 1.539377993836218646108445262314385550103e+103),
        (175.0, -0.75, (3.9466, 3.2139, 3.3228, -0.621, 2.5947, 4.7222), (-1.23, 1.58, -0.11, 0.21),
         2.760656519076823570545414972561135831193e+151, 7.561471885716256725373872771687445199194e+150),
        (-0.21, 175.0, (-1.7517, 3.5315, -1.5139, -4.4618, 4.0283, -1.4043), (0.47, 2.89, 0.89, 0.15),
         9.221309577830412557167259487684567510661e+149, 7.568598331944544322419633489464125883959e+150),
        (-175.0, -1.3, (2.9266, 6.4458, 2.9162, 3.7785, -2.5456, -2.6137), (-0.85, -0.13, 2.36, -0.2),
         3.26608841190551748932563794185111763759e+151, 8.740189264595676805156322975261791082289e+150),
        (-1.94, -175.0, (0.464, -3.3645, 1.9026, -2.2586, 6.3214, -0.8834), (0.5, 0.51, -0.52, 2.87),
         7.015016940174623038418682753898933544765e+150, 1.407778584759957740762248663042455541921e+150),
    ])
    def test_large_squeezing_at_random_angles(self, r1, r2, angles, alpha, var_q, var_p):
        moments, passed = quadrature_moments(transfer_entries(*angles)[:2], r1, r2, alpha[:2], alpha[2:])
        assert passed.all()
        assert moments[2, 0] == pytest.approx(var_q, rel=1e-12, abs=0.0)
        assert moments[3, 0] == pytest.approx(var_p, rel=1e-12, abs=0.0)

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(ParameterDomainError, match="overflow"):
            released_quadratures(SqueezedInput(0, 0, 1000.0, 0.0), IDENTITY)
        stats = released_quadratures(SqueezedInput(0, 0, 300.0, -300.0), build_transfer_matrix(
            StageAngles(0, 0, 0), StageAngles(0.7, 0, 0)))
        with pytest.raises(ParameterDomainError, match="overflows"):
            uncertainty_product(stats)

    def test_hyperbolic_functions_are_maths(self, rng):
        r = np.concatenate([rng.normal(0, 3, 1000), [0.0, -0.0, 710.0, 711.0, -711.0]])
        sinh, exp = elementwise(math.sinh, r), elementwise(math.exp, r)
        assert sinh.shape == exp.shape == r.shape
        with np.errstate(over="ignore"):
            expected = [(math.sinh(x) if abs(x) < 711 else np.sinh(x), math.exp(x) if x < 709.5 else np.exp(x))
                        for x in r.tolist()]
        assert np.array(expected).T.tobytes() == np.array([sinh, exp]).tobytes()
        assert exp[-1] == math.exp(-711.0) > 0.0
        assert [float(elementwise(f, 0.5)) for f in (math.sinh, math.exp)] == [math.sinh(0.5), math.exp(0.5)]


class TestValidation:
    def test_complex_squeezing_is_rejected(self):
        with pytest.raises(ParameterDomainError):
            SqueezedInput(0, 0, 0.5 + 0.1j, 0.0)

    @pytest.mark.parametrize("fields,message", [
        ((complex(np.nan, 0), 0, 0.0, 0.0), "displacement alpha1 must be finite"),
        ((0, complex(1.0, np.inf), 0.0, 0.0), "displacement alpha2 must be finite"),
        ((0, 0, np.inf, 0.0), "squeezing parameter r1 must be finite"),
        ((0, 0, 0.0, np.nan), "squeezing parameter r2 must be finite"),
    ])
    def test_nonfinite_fields_are_rejected(self, fields, message):
        with pytest.raises(ParameterDomainError, match=f"^{message}$"):
            SqueezedInput(*fields)

    def test_quadrature_stats_guard(self):
        with pytest.raises(InternalConsistencyError):
            QuadratureStats(0.0, 0.0, 0.1, 0.1)
        with pytest.raises(InternalConsistencyError):
            QuadratureStats(0.0, 0.0, -0.5, 1.0)
        with pytest.raises(InternalConsistencyError, match="^quadrature moment var_p is not finite$"):
            QuadratureStats(0.0, 0.0, 0.5, np.inf)


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
