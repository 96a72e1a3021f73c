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


def _finite_fields(instance, names, convert, message, error=ParameterDomainError):
    """Store convert of each named field of a frozen dataclass instance, in
    order; error(message) with the field's name and converted value
    formatted in at the first value that is not finite."""
    for name in names:
        value = convert(getattr(instance, name))
        if not cmath.isfinite(value):
            raise error(message.format(name=name, value=value))
        object.__setattr__(instance, name, value)


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
        _finite_fields(self, ("phi", "chi2", "chi3"), float, "stage angle {name} must be finite, got {value!r}")


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
        _finite_fields(self, ("s11", "s12", "s21", "s22"), complex, "matrix entry {name} must be finite")
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
    """Entries of S+S - 1 and SS+ - 1, for complex numbers or arrays alike:
    the four diagonal ones from the squared norms of the entries, then the two
    off-diagonal ones."""
    na, nb, nc, nd = (z.real * z.real + z.imag * z.imag for z in (a, b, c, d))
    return (na + nc - 1.0, nb + nd - 1.0, na + nb - 1.0, nc + nd - 1.0,
            a.conjugate() * b + c.conjugate() * d, a * c.conjugate() + b * d.conjugate())


def _entry_stack(entries, count: int, names: str) -> np.ndarray:
    """entries as a complex array whose leading axis holds the count grids
    named; ParameterDomainError naming the shape for any other leading axis."""
    entries = np.asarray(entries, dtype=complex)
    if entries.shape[:1] != (count,):
        raise ParameterDomainError(f"expected a ({count}, ...) array of {names}, got shape {entries.shape}")
    return entries


def unitarity_defects(entries) -> np.ndarray:
    """TransferMatrix.unitarity_defect at every point of a (4, ...) array of
    S11, S12, S21, S22, NaN or infinite where an entry is not finite; any
    other leading axis raises ParameterDomainError.  numpy's complex products
    fuse multiply-adds, so the last bits may differ from the method.  The six
    deviations are _unitarity_deviations' own, the squared norms formed in one
    pass."""
    entries = _entry_stack(entries, 4, "S11, S12, S21, S22")
    a, b, c, d = entries
    norms = entries.real * entries.real + entries.imag * entries.imag
    # in _unitarity_deviations' order: na + nc, nb + nd, na + nb and nc + nd
    # less one, then the two off-diagonal entries; abs() rather than
    # np.abs(out=), because a (4,) stack's products are numpy scalars, whose
    # abs rounds unlike the ufunc loop
    deviations = np.empty((6, *entries.shape[1:]))
    np.add(norms[:2], norms[2:], out=deviations[:2])
    np.add(norms[::2], norms[1::2], out=deviations[2:4])
    np.abs(np.subtract(deviations[:4], 1.0, out=deviations[:4]), out=deviations[:4])
    deviations[4] = abs(a.conjugate() * b + c.conjugate() * d)
    deviations[5] = abs(a * c.conjugate() + b * d.conjugate())
    return np.maximum.reduce(deviations)


# The entry formulas work on Python numbers with math and cmath, and on numpy
# arrays with numpy's cos, sin and exp, which round the same way.  A real
# factor times a complex one is two real products on both sides: the array
# side holds each complex factor as stacked real and imaginary parts.  numpy's
# complex product would promote the real factor to x + 0j and fuse
# multiply-adds, which can flip the sign of an underflowed part.  The matrix
# constructors stay scalar: numpy's per-call cost would dominate one point.
# For the same reason transfer_entries takes the number side for an angle
# that holds one finite value (math.cos raises at infinity).
# e^{i(late - early)} takes the rounded difference, times e^{i lost} where
# the difference rounded away digits: late - early = difference + lost
# exactly (Knuth's two-sum), so a small phase keeps its digits however large
# the other is.  Two finite control phases of opposite sign can have an
# infinite difference; there the phasor is the product e^{i late} e^{-i early}.
# The array side writes both products as CPython's complex product of the
# stacked parts.

def _number_times(x: float, z: complex) -> complex:
    return complex(x * z.real, x * z.imag)


def _rounding_error(difference, late, early):
    """late - early - difference, exact where difference = late - early is
    finite."""
    back = difference - late
    return (late - (difference - back)) - (early + back)


def _phase_number(late: float, early: float) -> complex:
    difference = late - early
    if not math.isfinite(difference):
        return cmath.exp(1j * late) * cmath.exp(-1j * early)
    lost = _rounding_error(difference, late, early)
    phase = cmath.exp(1j * difference)
    return phase if lost == 0.0 else phase * cmath.exp(1j * lost)


def _exp_parts(z: np.ndarray) -> np.ndarray:
    """exp of a complex array as its real and imaginary parts, stacked along
    a new first axis."""
    w = np.exp(z)
    return np.array([w.real, w.imag])


def _product(first, second):
    """CPython's complex product on (real, imaginary) pairs of numbers or arrays;
    numpy's fuses multiply-adds, so it can round a point unlike a scalar one."""
    (p, q), (u, v) = first, second
    return p * u - q * v, p * v + q * u


def _phase_parts(late: np.ndarray, early: np.ndarray) -> np.ndarray:
    difference = late - early
    parts = _exp_parts(1j * difference)
    lost = _rounding_error(difference, late, early)
    if lost.any():
        carried = np.isfinite(lost) & (lost != 0.0)
        parts = np.where(carried, _product(parts, _exp_parts(1j * lost)), parts)
    overflow = np.isinf(difference)
    if overflow.any():
        parts = np.where(overflow, _product(_exp_parts(1j * late), _exp_parts(-1j * early)), parts)
    return parts


def _one_value(angle: np.ndarray, unit: tuple):
    """angle as a float if it holds one finite value, else reshaped to the
    grid's number of dimensions, len(unit)."""
    if angle.size == 1:
        value = angle.item()
        if math.isfinite(value):
            return value
    return angle.reshape(unit[angle.ndim:] + angle.shape)


def _cos(angle):
    return math.cos(angle) if type(angle) is float else np.cos(angle)


def _sin(angle):
    return math.sin(angle) if type(angle) is float else np.sin(angle)


def _stage_entries(phi0, chi20, chi30, phi1, chi21, chi31, cos, sin, phase, times):
    c0, s0, c1, s1 = cos(phi0), sin(phi0), cos(phi1), sin(phi1)
    a, b = phase(chi21, chi20), phase(chi31, chi30)
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
                                          release.chi2, release.chi3, math.cos, math.sin, _phase_number,
                                          _number_times))


def transfer_entries(phi0, chi20, chi30, phi1, chi21, chi31) -> np.ndarray:
    """The (4, *grid) array of S11, S12, S21, S22 that build_transfer_matrix
    gives at each point of a grid of storage angles (phi0, chi20, chi30) and
    release angles (phi1, chi21, chi31), each a number or an array
    broadcastable to the grid; grid is their broadcast shape, (1,) when all
    are numbers.  cos, sin and exp run once per value an angle holds, through
    math and cmath for an angle that holds one finite value.
    Unvalidated: a non-finite angle gives NaN entries."""
    angles = [np.asarray(x, dtype=float) for x in (phi0, chi20, chi30, phi1, chi21, chi31)]
    # every swept angle takes the grid's number of dimensions, so that the
    # leading axis of stacked real and imaginary parts never meets a grid axis
    unit = (1,) * max(1, *(angle.ndim for angle in angles))
    angles = [_one_value(angle, unit) for angle in angles]
    if all(type(angle) is float for angle in angles):
        return np.array(_stage_entries(*angles, math.cos, math.sin, _phase_number, _number_times)).reshape(4, *unit)

    def phase(late, early):
        if type(late) is float and type(early) is float:
            value = _phase_number(late, early)
            return np.array([value.real, value.imag]).reshape(2, *unit)
        return _phase_parts(late, early)

    with np.errstate(over="ignore", invalid="ignore"):
        parts = np.array(_stage_entries(*angles, _cos, _sin, phase, np.multiply))
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
    """magnetic_phase_matrix over a number or an array of deltas of any
    shape, as the (4, *shape) entries, (4, 1) for a number; unvalidated like
    transfer_entries."""
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
        _finite_fields(self, ("s_overlap",), complex, "packet overlap must be finite")
        magnitude = abs(self.s_overlap)
        if magnitude > 1.0:
            if magnitude > 1.0 + OVERLAP_ROUNDING_TOL:
                raise ParameterDomainError(
                    f"packet overlap magnitude {magnitude:.12g} exceeds 1; the Gram matrix "
                    "would not be positive semidefinite"
                )
            object.__setattr__(self, "s_overlap", self.s_overlap / magnitude)

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
