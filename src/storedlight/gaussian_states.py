"""Quadrature statistics of released squeezed-coherent inputs.

Each input channel j carries a displaced squeezed state defined as the
eigenstate, with eigenvalue alpha_j, of the Bogoliubov-transformed operator

    A_j = cosh(r_j) X_j + sinh(r_j) X_j^dag,

so that for positive r_j the input q quadrature is squeezed to exp(-2 r_j)/2
and p is stretched accordingly.  Both stored packets are taken identical here
(unit overlap), which makes every released observable a function of the
transfer-matrix row of the observed channel.

Means and variances follow in closed form from the eigenvalue property.  The
closed form is one array kernel, quadrature_moments, over the transfer rows
of P points; released_quadratures is that kernel at one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, ParameterDomainError
from .mode_transform import TransferMatrix, _entry_stack, _finite_fields, _product

# Slack on the Heisenberg bound var_q * var_p >= 1/4 before declaring a bug.
HEISENBERG_SLACK = 1e-12


@dataclass(frozen=True)
class SqueezedInput:
    """Displacements and (real) squeezing parameters of the two input channels."""

    alpha1: complex
    alpha2: complex
    r1: float
    r2: float

    def __post_init__(self):
        _finite_fields(self, ("alpha1", "alpha2"), complex, "displacement {name} must be finite")
        for name in ("r1", "r2"):
            if isinstance(getattr(self, name), complex):
                raise ParameterDomainError(
                    f"squeezing parameter {name} must be real; rotated squeezing axes are "
                    "available only through the covariance helpers"
                )
            _finite_fields(self, (name,), float, "squeezing parameter {name} must be finite")


@dataclass(frozen=True)
class QuadratureStats:
    """First and second moments of the q and p quadratures of one channel."""

    mean_q: float
    mean_p: float
    var_q: float
    var_p: float

    def __post_init__(self):
        _finite_fields(self, ("mean_q", "mean_p", "var_q", "var_p"), float,
                       "quadrature moment {name} is not finite", InternalConsistencyError)
        if self.var_q <= 0 or self.var_p <= 0:
            raise InternalConsistencyError(
                f"quadrature variances must be positive, got {self.var_q!r}, {self.var_p!r}"
            )
        if self.var_q * self.var_p < 0.25 - HEISENBERG_SLACK:
            raise InternalConsistencyError(
                f"uncertainty product {self.var_q * self.var_p:.15f} violates the Heisenberg bound"
            )


def elementwise(function, x) -> np.ndarray:
    """A math function such as math.exp or math.sinh at a number or at each
    entry of an array, as an array of x's shape, infinite with x's sign where
    math overflows.  numpy's sinh differs from math's in the last bit on
    about a quarter of inputs, its exp on about one in twenty."""
    x = np.asarray(x, dtype=float)
    out = []
    for value in x.ravel().tolist():
        try:
            out.append(function(value))
        except OverflowError:
            out.append(math.copysign(math.inf, value))
    return np.array(out).reshape(x.shape)


def _scaled(part, scale):
    """part * scale for a scale e^(+-r): an exactly zero part contributes its
    zero even where the scale has overflowed, instead of 0 * inf = nan.  A
    finite scale times +-0 is already +-0, so only an overflowed one needs
    the substitution."""
    product = part * scale
    if np.isfinite(scale).all():
        return product
    return np.where(part == 0.0, part, product)


@np.errstate(over="ignore", invalid="ignore")
def quadrature_moments(row, r1, r2, alpha1, alpha2) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form moments of the released channel whose transfer-matrix row
    is (S_c1, S_c2), over a grid of points: row is a (2, ...) complex array
    whose trailing axes broadcast to the grid, r1 and r2 numbers or arrays
    broadcastable to the grid, alpha1 and alpha2 (real, imaginary) pairs of
    them.  A row whose leading axis is not 2 raises ParameterDomainError.

    Input A_j enters the released quadrature with weight
    u_j = c_j cosh r_j - c_j* sinh r_j = x_j e^(-r_j) + i y_j e^(r_j) for
    c_j = x_j + i y_j, which is S_cj for q and -i S_cj for p.  The mean is
    sqrt(2) Re(u_1 alpha_1 + u_2 alpha_2) and the variance, at any
    displacement, (|u_1|^2 + |u_2|^2)/2: no cosh - sinh is left to cancel as
    |r| grows.  Returns the (4, ...) array of mean_q, mean_p, var_q, var_p,
    over the broadcast shape of the inputs, and the mask of points where all
    four are finite and pass QuadratureStats' HEISENBERG_SLACK check, which
    implies its positivity.
    """
    row = _entry_stack(row, 2, "S_c1, S_c2")
    scales = [(elementwise(math.exp, np.negative(r)), elementwise(math.exp, r)) for r in (r1, r2)]
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

