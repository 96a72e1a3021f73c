"""Noise of the released-count difference with a squeezed signal and a strong probe.

Channel 1 stores squeezed vacuum, channel 2 a coherent probe of modulus
|alpha2| and phase gamma, and the observable is the difference K of photon
numbers released into the two output channels.  With balanced mixing the
difference operator degenerates into a probe-amplified quadrature of the
signal field, so its variance sweeps between the squeezed and stretched
levels as the control phase or the probe phase is tuned.

Phase convention: the probe phase enters through the conjugated amplitude,
alpha2 = |alpha2| exp(-i gamma).  Every general-mixing variance reported here
is even in gamma, so the sign only becomes observable in the balanced case,
where it makes the control and probe phases add.

The closed forms (balanced, classical probe; general mixing with all control
phases zero) are checked against truncated Fock-space oracles that build the
two-mode state and the difference operator explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterDomainError
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
    """Count-difference variance for a classically treated probe at balanced
    mixing (storage angle 0, release angle pi/4, only the release-stage
    control phase chi21 live).

    The difference operator reduces to a probe-amplified signal quadrature at
    angle chi21 + gamma, so the variance is
    |alpha2|^2 (cosh 2 r1 - sinh 2 r1 cos 2(chi21 + gamma)).
    """
    for name, value in (("r1", r1), ("alpha2_mod", alpha2_mod),
                        ("gamma", gamma), ("chi21", chi21)):
        if not math.isfinite(float(value)):
            raise ParameterDomainError(f"{name} must be finite, got {value!r}")
    if alpha2_mod < 0:
        raise ParameterDomainError(f"alpha2_mod must be >= 0, got {alpha2_mod}")
    angle = 2.0 * (chi21 + gamma)
    return alpha2_mod ** 2 * (math.cosh(2.0 * r1) - math.sinh(2.0 * r1) * math.cos(angle))


def general_variance(config: HomodyneConfig) -> float:
    """Count-difference variance at arbitrary mixing angles with every control
    phase zero.

    W = cos^2(2 dphi) (sinh^2(2 r1)/2 + |alpha2|^2)
      + sin^2(2 dphi) [|alpha2|^2 (cosh 2 r1 - sinh 2 r1 cos 2 gamma) + sinh^2 r1]

    with dphi the release-minus-storage mixing angle.  The direct term carries
    the photon-number variances of the two inputs, the cross term the probed
    signal quadrature.  Treating the probe classically removes its vacuum
    fluctuation from the cross term, dropping exactly the sinh^2 r1 piece.
    """
    for stage in (config.storage, config.release):
        if stage.chi2 != 0.0 or stage.chi3 != 0.0:
            raise ParameterDomainError(
                "the general variance form holds only with all control phases zero; "
                f"got chi2={stage.chi2!r}, chi3={stage.chi3!r}"
            )
    two_dphi = 2.0 * (config.release.phi - config.storage.phi)
    a_sq = config.alpha2_mod ** 2
    direct = 0.5 * math.sinh(2.0 * config.r1) ** 2 + a_sq
    cross = a_sq * (math.cosh(2.0 * config.r1)
                    - math.sinh(2.0 * config.r1) * math.cos(2.0 * config.gamma))
    if config.probe_treatment == PROBE_QUANTUM:
        cross += math.sinh(config.r1) ** 2
    return math.cos(two_dphi) ** 2 * direct + math.sin(two_dphi) ** 2 * cross


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


def _variance_of(psi: np.ndarray, operator) -> float:
    image = operator @ psi
    mean = float(np.real(np.vdot(psi, image)))
    return float(np.real(np.vdot(image, image))) - mean * mean


def _quantum_oracle(config: HomodyneConfig, cutoff: int) -> float:
    """(squeezed vacuum) x (coherent probe) evolved through the transfer
    matrix; the difference operator conserves total photon number, so a
    total-number truncation is exact apart from the input tail."""
    from .fock_oracle import OccupationBasis   # scipy.sparse, only for the oracle

    _check_tail(config.r1, config.alpha2, cutoff)
    sq = _squeezed_vacuum_coefficients(config.r1, cutoff + 1)
    coh = _coherent_coefficients(config.alpha2, cutoff + 1)

    basis = OccupationBasis(2, cutoff, total_cutoff=cutoff)
    occ = basis.states
    psi = sq[occ[:, 0]] * coh[occ[:, 1]]
    psi /= np.linalg.norm(psi)

    s = config.transfer.matrix
    ann = [basis.annihilation_matrix(0), basis.annihilation_matrix(1)]
    diff = None
    for j in range(2):
        for k in range(2):
            weight = (s[0, j].conjugate() * s[0, k]
                      - s[1, j].conjugate() * s[1, k])
            term = weight * (ann[j].conj().T @ ann[k])
            diff = term if diff is None else diff + term
    return _variance_of(psi, diff.tocsr())


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
    return _variance_of(sq.astype(complex), operator)


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
