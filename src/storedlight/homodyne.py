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
general_variance at one geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .gaussian_states import _scaled, elementwise
from .mode_transform import StageAngles, TransferMatrix, build_transfer_matrix

PROBE_QUANTUM = "quantum"
PROBE_CLASSICAL = "classical"


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
    with alpha2_mod >= 0 and a finite W.  Squares are float_power's, sinh and
    exp math's.  At dchi = 0, lift, Im M21 and
    2 arg M21 = arctan2(2 re im, re^2 - im^2) are +-0, so h is gamma and W
    rounds as the zero-phase form does, also where 2 phi overflows."""
    two_r = 2.0 * np.asarray(r1, dtype=float)
    sinh_2r = elementwise(math.sinh, two_r)
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
    shrink, stretch = elementwise(math.exp, -two_r), elementwise(math.exp, two_r)
    cross = a_sq * (_scaled(np.float_power(np.cos(h), 2.0), shrink)
                    + _scaled(np.float_power(np.sin(h), 2.0), stretch))
    if probe_treatment == PROBE_QUANTUM:
        cross = cross + np.float_power(elementwise(math.sinh, r1), 2.0)
    variance = np.atleast_1d(np.float_power(m11, 2.0) * direct + (re_sq + im_sq) * cross)
    return variance, np.isfinite(variance) & (np.asarray(alpha2_mod) >= 0)

