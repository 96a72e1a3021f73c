"""Stage-angle transfer matrices and packet overlap for a two-port light memory.

Two light pulses are written, one after the other, into orthogonal
superpositions of ground-state coherences of a driven atomic medium and later
read out in two steps.  Each storage or release stage is characterized by a
mixing angle (set by the ratio of the two control Rabi amplitudes) and one
phase per control field.  The map between stored and released collective modes
is a 2x2 unitary that depends only on the differences of those angles between
the release and storage stages.  An axial magnetic pulse that phase-shifts one
of the coherences acts exactly like an offset on the corresponding control
phase and produces a one-parameter family of beam-splitter matrices.

The two stored wave packets need not be identical.  Their complex overlap
integral defines a 2x2 Gram matrix which fixes the commutators of the packet
modes and enters the counting statistics downstream.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, NormalizationError, ParameterDomainError

# Maximum elementwise deviation of S+S and SS+ from the identity accepted at
# construction time.
UNITARITY_TOL = 1e-12

# Packet profiles must integrate to unit norm within this tolerance.
PROFILE_NORM_TOL = 1e-8

# Overlap magnitudes may exceed one by quadrature error bounded by the norm
# tolerance (discrete Cauchy-Schwarz); such values are clamped, not rejected.
OVERLAP_CLAMP_TOL = 2 * PROFILE_NORM_TOL

# Overlaps at least this close to unit magnitude count as fully overlapping
# packets for the closed-form counting statistics.
UNIT_OVERLAP_TOL = 1e-8

# Unit-magnitude phases like e^{i theta} round to 1 +/- one ulp; overlaps this
# far above 1 are pulled back to the circle instead of rejected.
OVERLAP_ROUNDING_TOL = 1e-12


@dataclass(frozen=True)
class StageAngles:
    """Control-field parameters of one storage or release stage.

    phi is the mixing angle between the two control fields, chi2 and chi3 are
    their phases.  All values are radians and only enter through differences
    between stages, so no range restriction is imposed beyond finiteness.
    """

    phi: float
    chi2: float
    chi3: float

    def __post_init__(self):
        for name in ("phi", "chi2", "chi3"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ParameterDomainError(f"stage angle {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class TransferMatrix:
    """Unitary 2x2 map from stored to released collective modes.

    Entry s_jk is the amplitude for input channel k to appear in output
    channel j.  Unitarity is checked at construction.
    """

    s11: complex
    s12: complex
    s21: complex
    s22: complex

    def __post_init__(self):
        for name in ("s11", "s12", "s21", "s22"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise ParameterDomainError(f"matrix entry {name} must be finite")
            object.__setattr__(self, name, value)
        defect = self.unitarity_defect()
        if defect > UNITARITY_TOL:
            raise ParameterDomainError(
                f"matrix is not unitary: max deviation {defect:.3e} exceeds {UNITARITY_TOL:.1e}"
            )

    def unitarity_defect(self) -> float:
        """Largest entry of |S+S - 1| and |SS+ - 1|."""
        return max(abs(x) for x in _unitarity_deviations(self.s11, self.s12, self.s21, self.s22))

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.s11, self.s12], [self.s21, self.s22]], dtype=complex)

    def row(self, channel: int) -> tuple[complex, complex]:
        """Amplitudes feeding the requested output channel (1 or 2)."""
        if channel == 1:
            return self.s11, self.s12
        if channel == 2:
            return self.s21, self.s22
        raise ParameterDomainError(f"channel must be 1 or 2, got {channel!r}")


def _unitarity_deviations(a, b, c, d):
    """Entries of S+S - 1 and SS+ - 1, for complex numbers or arrays alike."""
    return (
        a.conjugate() * a + c.conjugate() * c - 1.0,
        a.conjugate() * b + c.conjugate() * d,
        b.conjugate() * b + d.conjugate() * d - 1.0,
        a * a.conjugate() + b * b.conjugate() - 1.0,
        a * c.conjugate() + b * d.conjugate(),
        c * c.conjugate() + d * d.conjugate() - 1.0,
    )


def unitarity_defects(entries) -> np.ndarray:
    """TransferMatrix.unitarity_defect at every point of a (4, P) array of
    S11, S12, S21, S22, NaN where an entry is not finite.  numpy's complex
    products fuse multiply-adds, so the last bits may differ from the method."""
    return np.max(np.abs(_unitarity_deviations(*np.asarray(entries, dtype=complex))), axis=0)


# The entry formulas work on Python numbers with math and cmath, and on numpy
# arrays with numpy's cos, sin and exp, which round the same way.  A real
# factor times a complex one is two real products on both sides: the array
# side holds each complex factor as stacked real and imaginary parts.  numpy's
# complex product would promote the real factor to x + 0j and fuse
# multiply-adds, which can flip the sign of an underflowed part.  The matrix
# constructors stay scalar: numpy's per-call cost would dominate one point.

def _number_times(x: float, z: complex) -> complex:
    return complex(x * z.real, x * z.imag)


def _exp_parts(z: np.ndarray) -> np.ndarray:
    """exp of a complex array as its real and imaginary parts, stacked along
    a new first axis."""
    w = np.exp(z)
    return np.array([w.real, w.imag])


def _stage_entries(phi0, chi20, chi30, phi1, chi21, chi31, cos, sin, exp, times):
    c0, s0, c1, s1 = cos(phi0), sin(phi0), cos(phi1), sin(phi1)
    a, b = exp(1j * (chi21 - chi20)), exp(1j * (chi31 - chi30))
    return (times(c1 * c0, a) + times(s1 * s0, b), times(-c1 * s0, a) + times(s1 * c0, b),
            times(-s1 * c0, a) + times(c1 * s0, b), times(s1 * s0, a) + times(c1 * c0, b))


def _magnetic_entries(delta, cos, sin, exp):
    half = 0.5 * delta
    g = exp(-1j * half)
    diag, off = g * cos(half), 1j * g * sin(half)
    return diag, off, off, diag


def build_transfer_matrix(storage: StageAngles, release: StageAngles) -> TransferMatrix:
    """Transfer matrix for given storage-stage and release-stage angles.

    The matrix factorizes as R(phi_rel) diag(e^{i dchi2}, e^{i dchi3})
    R(phi_sto)^T with R a real rotation and dchi the release-minus-storage
    phase differences, so it is unitary by construction and collapses to the
    identity when both stages coincide.
    """
    return TransferMatrix(*_stage_entries(storage.phi, storage.chi2, storage.chi3, release.phi,
                                          release.chi2, release.chi3, math.cos, math.sin, cmath.exp,
                                          _number_times))


def transfer_entries(phi0, chi20, chi30, phi1, chi21, chi31) -> np.ndarray:
    """The (4, P) array of S11, S12, S21, S22 that build_transfer_matrix
    gives at each point of a grid of storage angles (phi0, chi20, chi30) and
    release angles (phi1, chi21, chi31), each a number or a (P,) array.
    Unvalidated: a non-finite angle gives NaN entries."""
    angles = [np.atleast_1d(np.asarray(x, dtype=float)) for x in (phi0, chi20, chi30, phi1, chi21, chi31)]
    with np.errstate(invalid="ignore"):
        parts = np.array(_stage_entries(*angles, np.cos, np.sin, _exp_parts, np.multiply))
    entries = np.empty((4, *parts.shape[2:]), dtype=complex)
    entries.real, entries.imag = parts[:, 0], parts[:, 1]
    return entries


def magnetic_phase_matrix(delta: float) -> TransferMatrix:
    """Beam-splitter matrix induced by a magnetic phase shift delta.

    Shifting one ground-state coherence by delta between storage and release
    at fixed balanced mixing (both stage angles pi/4, control phases equal)
    yields a symmetric splitter whose transmission amplitude is cos(delta/2):
    delta = 0 transmits fully, delta = pi swaps the channels.
    """
    delta = float(delta)
    if not math.isfinite(delta):
        raise ParameterDomainError(f"delta must be finite, got {delta!r}")
    return TransferMatrix(*_magnetic_entries(delta, math.cos, math.sin, cmath.exp))


def magnetic_phase_entries(delta) -> np.ndarray:
    """magnetic_phase_matrix over a number or (P,) array of deltas, as the
    (4, P) entries; unvalidated like transfer_entries."""
    with np.errstate(invalid="ignore"):
        return np.array(_magnetic_entries(np.atleast_1d(np.asarray(delta, dtype=float)), np.cos, np.sin, np.exp))


def global_phase_distance(first: TransferMatrix, second: TransferMatrix) -> float:
    """How far ``first`` is from ``second`` times a single global phase.

    Returns the largest entry of |first second+ - e^{i theta}| with theta
    chosen from the trace; zero (to rounding) iff the two matrices describe
    the same physical transformation.
    """
    m = first.matrix @ second.matrix.conj().T
    trace = m[0, 0] + m[1, 1]
    phase = trace / abs(trace) if abs(trace) > 0 else 1.0
    return float(np.max(np.abs(m - phase * np.eye(2))))


@dataclass(frozen=True)
class GramMatrix:
    """Overlap data of the two stored wave packets.

    s_overlap is the complex inner product of the normalized packet profiles;
    the full Gram matrix [[1, s], [s*, 1]] is positive semidefinite exactly
    when the magnitude of s does not exceed one.
    """

    s_overlap: complex

    def __post_init__(self):
        value = complex(self.s_overlap)
        if not cmath.isfinite(value):
            raise ParameterDomainError("packet overlap must be finite")
        magnitude = abs(value)
        if magnitude > 1.0:
            if magnitude > 1.0 + OVERLAP_ROUNDING_TOL:
                raise ParameterDomainError(
                    f"packet overlap magnitude {magnitude:.12g} exceeds 1; the Gram matrix "
                    "would not be positive semidefinite"
                )
            value /= magnitude
        object.__setattr__(self, "s_overlap", value)

    @property
    def matrix(self) -> np.ndarray:
        s = self.s_overlap
        return np.array([[1.0, s], [s.conjugate(), 1.0]], dtype=complex)

    @property
    def overlap_magnitude(self) -> float:
        return abs(self.s_overlap)

    def is_unit_overlap(self) -> bool:
        """True when the packets coincide up to a phase, within UNIT_OVERLAP_TOL."""
        return abs(1.0 - self.overlap_magnitude) <= UNIT_OVERLAP_TOL


def gram_from_packets(f1, f2, spacing: float) -> GramMatrix:
    """Gram matrix from sampled packet profiles on a uniform grid.

    Args:
        f1, f2: complex profile samples, one packet each, equal length >= 2.
        spacing: grid step, positive.

    The profiles must be normalized to unity (trapezoidal rule) within
    PROFILE_NORM_TOL; the overlap is computed with the same rule.  A magnitude
    marginally above one, which quadrature error permits, is clamped back to
    the unit circle with a warning.
    """
    f1 = np.asarray(f1, dtype=complex)
    f2 = np.asarray(f2, dtype=complex)
    if f1.ndim != 1 or f2.ndim != 1 or f1.shape != f2.shape or f1.size < 2:
        raise ParameterDomainError(
            "packet profiles must be 1-d arrays of equal length >= 2, got shapes "
            f"{f1.shape} and {f2.shape}"
        )
    spacing = float(spacing)
    if not math.isfinite(spacing) or spacing <= 0:
        raise ParameterDomainError(f"grid spacing must be positive and finite, got {spacing!r}")
    if not (np.all(np.isfinite(f1.real)) and np.all(np.isfinite(f1.imag))
            and np.all(np.isfinite(f2.real)) and np.all(np.isfinite(f2.imag))):
        raise ParameterDomainError("packet profiles must be finite everywhere")

    for label, profile in (("first", f1), ("second", f2)):
        norm = float(np.trapezoid(np.abs(profile) ** 2, dx=spacing))
        if abs(norm - 1.0) > PROFILE_NORM_TOL:
            raise NormalizationError(
                f"{label} packet profile has squared norm {norm:.12g}, "
                f"expected 1 within {PROFILE_NORM_TOL:.1e}",
                measured_norm=norm,
            )

    s = complex(np.trapezoid(np.conj(f1) * f2, dx=spacing))
    magnitude = abs(s)
    if magnitude > 1.0:
        if magnitude > 1.0 + OVERLAP_CLAMP_TOL:
            raise InternalConsistencyError(
                f"overlap magnitude {magnitude:.12g} exceeds 1 beyond quadrature error"
            )
        if magnitude > 1.0 + OVERLAP_ROUNDING_TOL:
            warnings.warn(
                f"overlap magnitude {magnitude:.12g} marginally exceeds 1; "
                "clamping to the unit circle",
                stacklevel=2,
            )
        s /= magnitude
    return GramMatrix(s_overlap=s)
