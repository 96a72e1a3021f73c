"""Quadrature statistics of released squeezed-coherent inputs.

Each input channel j carries a displaced squeezed state defined as the
eigenstate, with eigenvalue alpha_j, of the Bogoliubov-transformed operator

    A_j = cosh(r_j) X_j + sinh(r_j) X_j^dag,

so that for positive r_j the input q quadrature is squeezed to exp(-2 r_j)/2
and p is stretched accordingly.  Both stored packets are taken identical here
(unit overlap), which makes every released observable a function of the
transfer-matrix row of the observed channel.

Two independent computation routes are provided: closed-form means and
variances obtained through the eigenvalue property, and a Gaussian oracle that
propagates the 4x4 quadrature covariance matrix through the symplectic image
of the transfer matrix.  The closed form is one array kernel,
quadrature_moments, over the transfer rows of P points; released_quadratures
is that kernel at one point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, ParameterDomainError
from .mode_transform import TransferMatrix

# Slack on the Heisenberg bound var_q * var_p >= 1/4 before declaring a bug.
HEISENBERG_SLACK = 1e-12

# Symplectic eigenvalues of a pure Gaussian state must equal 1/2 to this
# tolerance after transport through the transfer matrix.
PURITY_TOL = 1e-10

VACUUM_VARIANCE = 0.5


@dataclass(frozen=True)
class SqueezedInput:
    """Displacements and (real) squeezing parameters of the two input channels."""

    alpha1: complex
    alpha2: complex
    r1: float
    r2: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise ParameterDomainError(f"displacement {name} must be finite")
            object.__setattr__(self, name, value)
        for name in ("r1", "r2"):
            value = getattr(self, name)
            if isinstance(value, complex):
                raise ParameterDomainError(
                    f"squeezing parameter {name} must be real; rotated squeezing axes are "
                    "available only through the covariance helpers"
                )
            value = float(value)
            if not math.isfinite(value):
                raise ParameterDomainError(f"squeezing parameter {name} must be finite")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class QuadratureStats:
    """First and second moments of the q and p quadratures of one channel."""

    mean_q: float
    mean_p: float
    var_q: float
    var_p: float

    def __post_init__(self):
        for name in ("mean_q", "mean_p", "var_q", "var_p"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise InternalConsistencyError(f"quadrature moment {name} is not finite")
            object.__setattr__(self, name, value)
        if self.var_q <= 0 or self.var_p <= 0:
            raise InternalConsistencyError(
                f"quadrature variances must be positive, got {self.var_q!r}, {self.var_p!r}"
            )
        if self.var_q * self.var_p < 0.25 - HEISENBERG_SLACK:
            raise InternalConsistencyError(
                f"uncertainty product {self.var_q * self.var_p:.15f} violates the Heisenberg bound"
            )


def cosh_sinh(r):
    """math.cosh and math.sinh at a number or at each entry of an array, as
    two arrays, infinite where math overflows.  numpy's cosh and sinh differ
    from math's in the last bit on about a quarter of inputs."""
    pairs = []
    for x in np.ravel(r).tolist():
        try:
            pairs.append((math.cosh(x), math.sinh(x)))
        except OverflowError:
            pairs.append((math.inf, math.copysign(math.inf, x)))
    return np.reshape(pairs, (-1, 2)).T.reshape(2, *np.shape(r))


def _exp_pair(r):
    """math.exp(-r) and math.exp(r) like cosh_sinh gives math.cosh and math.sinh."""
    pairs = [(_exp(-x), _exp(x)) for x in np.ravel(r).tolist()]
    return np.reshape(pairs, (-1, 2)).T.reshape(2, *np.shape(r))


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _scaled(part, scale):
    """part * scale for a scale e^(+-r): an exactly zero part contributes its
    zero even where the scale has overflowed, instead of 0 * inf = nan."""
    return np.where(part == 0.0, part, part * scale)


def _product(a, b):
    """CPython's complex product on (real, imaginary) pairs of numbers or
    arrays.  numpy's complex product fuses multiply-adds, so it would round
    some points differently from a scalar evaluation."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


@np.errstate(over="ignore", invalid="ignore")
def quadrature_moments(row, r1, r2, alpha1, alpha2) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form moments of the released channel whose transfer-matrix row
    is (S_c1, S_c2), at P points: row is a (2, P) complex array, r1 and r2
    numbers or (P,) arrays, alpha1 and alpha2 (real, imaginary) pairs of them.

    Input A_j enters the released quadrature with weight
    u_j = c_j cosh r_j - c_j* sinh r_j = x_j e^(-r_j) + i y_j e^(r_j) for
    c_j = x_j + i y_j, which is S_cj for q and -i S_cj for p.  The mean is
    sqrt(2) Re(u_1 alpha_1 + u_2 alpha_2) and the variance, at any
    displacement, (|u_1|^2 + |u_2|^2)/2: no cosh - sinh is left to cancel as
    |r| grows.  Returns the (4, P) array of mean_q, mean_p, var_q, var_p and
    the (P,) mask of points where all four are finite and pass
    QuadratureStats' HEISENBERG_SLACK check, which implies its positivity.
    """
    row = np.asarray(row, dtype=complex)
    scales = [_exp_pair(r1), _exp_pair(r2)]
    moments = []
    for factor in ((1.0, 0.0), (-0.0, -1.0)):   # 1 for q, -1j for p
        u1, u2 = [], []
        for u, entry, (shrink, stretch) in zip((u1, u2), row, scales):
            x, y = _product(factor, (entry.real, entry.imag))
            u.extend((_scaled(x, shrink), _scaled(y, stretch)))
        mean = math.sqrt(2.0) * (_product(u1, alpha1)[0] + _product(u2, alpha2)[0])
        moments += [mean, 0.5 * ((u1[0] * u1[0] + u1[1] * u1[1]) + (u2[0] * u2[0] + u2[1] * u2[1]))]
    mean_q, var_q, mean_p, var_p = np.broadcast_arrays(*moments)
    moments = np.array([mean_q, mean_p, var_q, var_p])
    passed = np.isfinite(moments).all(axis=0) & (var_q * var_p >= 0.25 - HEISENBERG_SLACK)
    return moments, passed


def released_quadratures(inputs: SqueezedInput, transfer: TransferMatrix,
                         channel: int = 1) -> QuadratureStats:
    """Closed-form quadrature moments of one released channel:
    quadrature_moments at one point."""
    alpha1, alpha2 = inputs.alpha1, inputs.alpha2
    moments, _ = quadrature_moments(np.reshape(transfer.row(channel), (2, 1)), inputs.r1, inputs.r2,
                                    (alpha1.real, alpha1.imag), (alpha2.real, alpha2.imag))
    if not np.isfinite(moments).all():
        raise ParameterDomainError(f"released quadrature moments of {inputs!r} overflow")
    return QuadratureStats(*moments[:, 0])


def uncertainty_product(stats: QuadratureStats) -> float:
    """var_q times var_p; 1/4 exactly for an unmixed minimal state."""
    product = stats.var_q * stats.var_p
    if not math.isfinite(product):
        raise ParameterDomainError(
            f"uncertainty product of var_q={stats.var_q!r} and var_p={stats.var_p!r} overflows")
    return product


# ----------------------------------------------------------------------
# covariance-matrix oracle

def squeezed_covariance_block(zeta: complex) -> np.ndarray:
    """2x2 quadrature covariance of a squeezed state, squeezing parameter
    zeta = r e^{i theta}; theta/2 rotates the squeezed axis away from q."""
    zeta = complex(zeta)
    r, theta = abs(zeta), cmath.phase(zeta)
    core = np.diag([math.exp(-2.0 * r), math.exp(2.0 * r)]) * VACUUM_VARIANCE
    half = 0.5 * theta
    rot = np.array([[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]])
    return rot @ core @ rot.T


def displaced_mean(alpha: complex, zeta: complex) -> np.ndarray:
    """Quadrature mean vector (q, p) of the displaced squeezed state."""
    zeta = complex(zeta)
    r, theta = abs(zeta), cmath.phase(zeta)
    a_mean = math.cosh(r) * alpha - cmath.exp(1j * theta) * math.sinh(r) * alpha.conjugate()
    return np.array([math.sqrt(2.0) * a_mean.real, math.sqrt(2.0) * a_mean.imag])


def transfer_symplectic(transfer: TransferMatrix) -> np.ndarray:
    """4x4 real symplectic matrix acting on (q1, p1, q2, p2) the way the
    transfer matrix acts on the mode operators."""
    out = np.zeros((4, 4))
    s = transfer.matrix
    for j in range(2):
        for k in range(2):
            re, im = s[j, k].real, s[j, k].imag
            out[2 * j:2 * j + 2, 2 * k:2 * k + 2] = [[re, -im], [im, re]]
    return out


def symplectic_eigenvalues(covariance: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a 2n x 2n covariance matrix, ascending."""
    n = covariance.shape[0] // 2
    j_block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.kron(np.eye(n), j_block)
    values = np.abs(np.linalg.eigvals(1j * omega @ covariance))
    return np.sort(values)[::2]


def gaussian_oracle(inputs: SqueezedInput, transfer: TransferMatrix,
                    channel: int = 1) -> QuadratureStats:
    """Quadrature moments via covariance-matrix transport, independent of the
    closed forms.  The symplectic spectrum is checked to remain at the pure
    value 1/2 before the channel block is read off."""
    mean = np.concatenate([
        displaced_mean(inputs.alpha1, inputs.r1),
        displaced_mean(inputs.alpha2, inputs.r2),
    ])
    cov = np.zeros((4, 4))
    cov[0:2, 0:2] = squeezed_covariance_block(inputs.r1)
    cov[2:4, 2:4] = squeezed_covariance_block(inputs.r2)
    sym = transfer_symplectic(transfer)
    mean_out = sym @ mean
    cov_out = sym @ cov @ sym.T
    spectrum = symplectic_eigenvalues(cov_out)
    if np.max(np.abs(spectrum - VACUUM_VARIANCE)) > PURITY_TOL:
        raise InternalConsistencyError(
            f"transported state lost purity: symplectic spectrum {spectrum}"
        )
    offset = 2 * (channel - 1)
    if channel not in (1, 2):
        raise ParameterDomainError(f"channel must be 1 or 2, got {channel!r}")
    return QuadratureStats(
        mean_q=float(mean_out[offset]),
        mean_p=float(mean_out[offset + 1]),
        var_q=float(cov_out[offset, offset]),
        var_p=float(cov_out[offset + 1, offset + 1]),
    )
