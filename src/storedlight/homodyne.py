"""Noise of the released-count difference with a squeezed signal and a strong probe.

Channel 1 stores squeezed vacuum, channel 2 a coherent probe of modulus
|alpha2| and phase gamma, and the observable is the difference K of photon
numbers released into the two output channels.  K is quadratic in the mode
operators, so its variance has one Gaussian-moment closed form at any mixing
angles and control phases.  With balanced mixing K degenerates into a
probe-amplified quadrature of the signal field, so its variance sweeps between
the squeezed and stretched levels as the control or probe phase is tuned.

Phase convention: the probe phase enters through the conjugated amplitude,
alpha2 = |alpha2| exp(-i gamma); at balanced mixing it adds to the control
phase.

The closed form is one array kernel, count_difference_variance, over P
points; general_variance is that kernel at one point and balanced_variance
general_variance at one geometry.  Truncated Fock-space oracles that build the
two-mode state and the difference operator explicitly check both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterDomainError
from .fock_oracle import OccupationBasis
from .gaussian_states import _exp_pair, _scaled, cosh_sinh
from .mode_transform import StageAngles, TransferMatrix, build_transfer_matrix

PROBE_QUANTUM = "quantum"
PROBE_CLASSICAL = "classical"

DEFAULT_CUTOFF = 32

# Probability mass the truncated input state may lose beyond the cutoff.
TAIL_TOL = 1e-10

# A transfer matrix counts as balanced when all intensity splittings are
# within this distance of one half.
BALANCED_TOL = 1e-12


@dataclass(frozen=True)
class HomodyneConfig:
    """Inputs of the count-difference measurement.

    r1 squeezes the channel-1 vacuum, alpha2_mod and gamma set the coherent
    probe, the stage angles fix the transfer matrix, and probe_treatment
    selects whether the probe contributes its own quantum noise.
    """

    r1: float
    alpha2_mod: float
    gamma: float
    storage: StageAngles
    release: StageAngles
    probe_treatment: str = PROBE_QUANTUM

    def __post_init__(self):
        for name in ("r1", "alpha2_mod", "gamma"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ParameterDomainError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.alpha2_mod < 0:
            raise ParameterDomainError(f"alpha2_mod must be >= 0, got {self.alpha2_mod}")
        if self.probe_treatment not in (PROBE_QUANTUM, PROBE_CLASSICAL):
            raise ParameterDomainError(
                f"probe_treatment must be {PROBE_QUANTUM!r} or {PROBE_CLASSICAL!r}, "
                f"got {self.probe_treatment!r}"
            )

    @property
    def alpha2(self) -> complex:
        return self.alpha2_mod * complex(math.cos(self.gamma), -math.sin(self.gamma))

    @property
    def transfer(self) -> TransferMatrix:
        return build_transfer_matrix(self.storage, self.release)


def balanced_variance(r1: float, alpha2_mod: float, gamma: float, chi21: float) -> float:
    """general_variance for a classically treated probe at balanced mixing
    (storage angle 0, release angle pi/4, only the release-stage control
    phase chi21 live): the difference operator reduces to a probe-amplified
    signal quadrature at angle chi21 + gamma, and the variance is
    |alpha2|^2 (cosh 2 r1 - sinh 2 r1 cos 2(chi21 + gamma))."""
    return general_variance(HomodyneConfig(r1, alpha2_mod, gamma, StageAngles(0.0, 0.0, 0.0),
                                           StageAngles(math.pi / 4, chi21, 0.0), PROBE_CLASSICAL))


def general_variance(config: HomodyneConfig) -> float:
    """Count-difference variance at any stage angles: count_difference_variance
    at one point."""
    storage, release = config.storage, config.release
    dchi = (release.chi3 - storage.chi3) - (release.chi2 - storage.chi2)
    variance, _ = count_difference_variance(config.r1, config.alpha2_mod, config.gamma, storage.phi,
                                            release.phi, dchi, config.probe_treatment)
    if not math.isfinite(variance[0]):
        raise ParameterDomainError(f"count-difference variance of {config!r} is not finite")
    return float(variance[0])


@np.errstate(over="ignore", invalid="ignore")
def count_difference_variance(r1, alpha2_mod, gamma, phi0, phi1, dchi,
                              probe_treatment: str = PROBE_QUANTUM) -> tuple[np.ndarray, np.ndarray]:
    """Variance W of K = a^dag M a, M = S^dag diag(1, -1) S, at P points, every
    argument but the probe treatment a number or a (P,) array: phi0 and phi1
    are the stage mixing angles and dchi = (chi31 - chi30) - (chi21 - chi20)
    the only control-phase combination M depends on.  By Wick's theorem

        W = M11^2 (sinh^2(2 r1)/2 + |alpha2|^2)
          + |M21|^2 [|alpha2|^2 (e^(-2 r1) cos^2 h + e^(2 r1) sin^2 h) + sinh^2 r1],
        h = gamma + arg M21 (mod pi, which cos^2 and sin^2 do not see);

    a classical probe drops its vacuum term sinh^2 r1.  The probed quadrature
    is cosh 2 r1 - sinh 2 r1 cos 2h written without its cancellation on the
    squeezed axis, and an exactly zero weight of e^(+-2 r1) stays zero where
    the scale overflows.  Returns the (P,) variances and the mask of points
    with alpha2_mod >= 0 and a finite W.  Squares are float_power's, cosh,
    sinh and exp math's.  At dchi = 0, lift, Im M21 and
    2 arg M21 = arctan2(2 re im, re^2 - im^2) are +-0, so h is gamma and W
    rounds as the zero-phase form does, also where 2 phi overflows."""
    two_r = 2.0 * np.asarray(r1, dtype=float)
    sinh_2r = cosh_sinh(two_r)[1]
    phi0, phi1, dchi = (np.asarray(x, dtype=float) for x in (phi0, phi1, dchi))
    two_dphi = 2.0 * (phi1 - phi0)
    sin_0, cos_0, sin_2phi1 = np.sin(phi0), np.cos(phi0), 2.0 * np.sin(phi1) * np.cos(phi1)
    # M11 = m11 and M21 = re + i im
    lift = 2.0 * np.float_power(np.sin(0.5 * dchi), 2.0) * sin_2phi1
    m11 = np.cos(two_dphi) - lift * (2.0 * sin_0 * cos_0)
    re = np.sin(two_dphi) - lift * ((cos_0 - sin_0) * (cos_0 + sin_0))
    im = -sin_2phi1 * np.sin(dchi)
    re_sq, im_sq = np.float_power(re, 2.0), np.float_power(im, 2.0)
    a_sq = np.float_power(alpha2_mod, 2.0)
    direct = 0.5 * np.float_power(sinh_2r, 2.0) + a_sq
    h = np.asarray(gamma, dtype=float) + 0.5 * np.arctan2(2.0 * re * im, re_sq - im_sq)
    shrink, stretch = _exp_pair(two_r)
    cross = a_sq * (_scaled(np.float_power(np.cos(h), 2.0), shrink)
                    + _scaled(np.float_power(np.sin(h), 2.0), stretch))
    if probe_treatment == PROBE_QUANTUM:
        cross = cross + np.float_power(cosh_sinh(r1)[1], 2.0)
    variance = np.atleast_1d(np.float_power(m11, 2.0) * direct + (re_sq + im_sq) * cross)
    return variance, np.isfinite(variance) & (np.asarray(alpha2_mod) >= 0)


def _squeezed_vacuum_coefficients(r: float, count: int) -> np.ndarray:
    """Number-basis amplitudes of squeezed vacuum, indices 0..count-1."""
    coeffs = np.zeros(count)
    coeffs[0] = 1.0 / math.sqrt(math.cosh(r))
    tanh = math.tanh(r)
    for k in range(2, count, 2):
        coeffs[k] = -coeffs[k - 2] * tanh * math.sqrt((k - 1) / k)
    return coeffs


def _coherent_coefficients(alpha: complex, count: int) -> np.ndarray:
    """Number-basis amplitudes of a coherent state, indices 0..count-1."""
    coeffs = np.zeros(count, dtype=complex)
    coeffs[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for k in range(1, count):
        coeffs[k] = coeffs[k - 1] * alpha / math.sqrt(k)
    return coeffs


def _check_tail(r: float, alpha: complex, cutoff: int) -> None:
    """Fail with a cutoff suggestion when the product state keeps less than
    1 - TAIL_TOL of its mass at or below the total-number cutoff."""
    search = min(4096, max(4 * cutoff, 256, int(abs(alpha) ** 2 + 10.0 * abs(alpha)) + 64))
    p1 = _squeezed_vacuum_coefficients(r, search) ** 2
    p2 = np.abs(_coherent_coefficients(alpha, search)) ** 2
    mass = np.cumsum(np.convolve(p1, p2))
    tail = 1.0 - mass[cutoff]
    if tail > TAIL_TOL:
        enough = np.nonzero(mass >= 1.0 - TAIL_TOL)[0]
        hint = int(enough[0]) if enough.size else None
        raise CapacityError(
            f"truncation at total photon number {cutoff} loses probability {tail:.3e}; "
            + (f"a cutoff of {hint} suffices" if hint is not None else
               "the state is too large for this oracle"),
            required=hint,
        )


def _variance_of(psi: np.ndarray, image: np.ndarray) -> float:
    """Variance of an operator in the normalized state psi, image being the
    operator applied to psi."""
    mean = float(np.real(np.vdot(psi, image)))
    return float(np.real(np.vdot(image, image))) - mean * mean


def _quantum_oracle(config: HomodyneConfig, cutoff: int) -> float:
    """(squeezed vacuum) x (coherent probe) evolved through the transfer
    matrix.  The difference operator K conserves total photon number, so each
    sector of N photons (N + 1 states) is taken on its own and a total-number
    truncation is exact apart from the input tail."""
    _check_tail(config.r1, config.alpha2, cutoff)
    sq = _squeezed_vacuum_coefficients(config.r1, cutoff + 1)
    coh = _coherent_coefficients(config.alpha2, cutoff + 1)

    # K = sum_jk w_jk a_j^dag a_k with w = S^dag diag(1, -1) S
    s = config.transfer.matrix
    weights = np.outer(s[0].conj(), s[0]) - np.outer(s[1].conj(), s[1])
    sectors = [OccupationBasis(2, total) for total in range(cutoff + 1)]
    parts = [sq[basis.states[:, 0]] * coh[basis.states[:, 1]] for basis in sectors]
    image = np.concatenate([basis.apply(weights, part) for basis, part in zip(sectors, parts)])
    psi = np.concatenate(parts)
    norm = np.linalg.norm(psi)
    return _variance_of(psi / norm, image / norm)


def _classical_oracle(config: HomodyneConfig, cutoff: int) -> float:
    """Probe replaced by its amplitude; only the signal mode stays quantum.

    The direct (number-difference) part of the observable then carries no
    probe noise, so this route is faithful exactly when that part vanishes,
    i.e. for balanced mixing, and is restricted accordingly.
    """
    s = config.transfer.matrix
    splittings = np.abs(s) ** 2
    if np.max(np.abs(splittings - 0.5)) > BALANCED_TOL:
        raise ParameterDomainError(
            "the classical-probe oracle is defined for balanced mixing only; "
            f"intensity splittings are {splittings.ravel()}"
        )
    kappa = s[0, 0].conjugate() * s[0, 1] - s[1, 0].conjugate() * s[1, 1]
    c = kappa * config.alpha2

    sq = _squeezed_vacuum_coefficients(config.r1, cutoff + 1)
    tail = 1.0 - float(np.sum(sq ** 2))
    if tail > TAIL_TOL:
        raise CapacityError(
            f"squeezed vacuum loses probability {tail:.3e} at cutoff {cutoff}",
            required=None,
        )
    lower = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    operator = c * lower.conj().T + c.conjugate() * lower
    return _variance_of(sq, operator @ sq)


def homodyne_oracle(config: HomodyneConfig, cutoff: int = DEFAULT_CUTOFF) -> float:
    """Truncated Fock-space variance of the released count difference.

    Honors probe_treatment: the quantum route keeps both modes, the classical
    route replaces the probe by a c-number and requires balanced mixing.
    """
    if cutoff < 2:
        raise ParameterDomainError(f"cutoff must be at least 2, got {cutoff}")
    if config.probe_treatment == PROBE_CLASSICAL:
        return _classical_oracle(config, cutoff)
    return _quantum_oracle(config, cutoff)
