"""Closed-form counting statistics for stored Fock states released in two steps.

A number state with n photons is written into the first packet of channel 1
and one with m photons into the second packet of channel 2.  After the release
stages mix the channels, the photon number in output channel 1 follows an
interference distribution.  When the two packets overlap completely the
transfer acts on the photons as a spin rotation, and the distribution is a
squared column of its Wigner d-matrix, evaluated through a cached
eigendecomposition of J_y that stays accurate up to the 64-photon cap.  At
partial overlap the second packet splits into a part along the first packet,
which interferes, and an orthogonal remainder whose photons are
distinguishable; the distribution is then an exact binomial mixture of
unit-overlap distributions, each convolved with the independent routing of
the remainder's photons.

release_probabilities evaluates both forms for a whole grid of transfer
matrices at once, array in and array out, in fixed-size chunks of points.
release_distribution and release_distribution_unit_overlap are that kernel
at a single point, with its validation and error messages.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    InternalConsistencyError,
    OverlapDomainError,
    ParameterDomainError,
    UndefinedRatioError,
)
from .mode_transform import UNIT_OVERLAP_TOL, GramMatrix, TransferMatrix

# Largest total photon number a FockInput accepts; the closed forms are
# tested up to it.
MAX_TOTAL_PHOTONS = 64

# Raw probabilities outside [0, 1] by more than this indicate a bug rather
# than accumulated rounding; smaller excursions are clamped.
PROBABILITY_GUARD = 1e-9

# The distribution must sum to one within this tolerance.
SUM_TOL = 1e-10


@dataclass(frozen=True)
class FockInput:
    """Stored number-state input: n photons in packet 1 of channel 1 and
    m photons in packet 2 of channel 2, with the packet overlap attached."""

    n: int
    m: int
    overlap: GramMatrix = field(default_factory=lambda: GramMatrix(1.0))

    def __post_init__(self):
        for name in ("n", "m"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ParameterDomainError(f"photon number {name} must be an integer, got {value!r}")
            if value < 0:
                raise ParameterDomainError(f"photon number {name} must be >= 0, got {value}")
            object.__setattr__(self, name, int(value))
        if not isinstance(self.overlap, GramMatrix):
            raise ParameterDomainError("overlap must be a GramMatrix")
        if self.total > MAX_TOTAL_PHOTONS:
            raise CapacityError(
                f"total photon number {self.total} exceeds the cap of {MAX_TOTAL_PHOTONS}",
                required=self.total,
            )

    @property
    def total(self) -> int:
        return self.n + self.m


def _guard_checks(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each probability vector along the last axis of raw stays in
    [0, 1] within PROBABILITY_GUARD, and whether it sums to 1 within SUM_TOL.
    Written as conditions to pass, so a NaN fails both."""
    in_range = (raw.min(axis=-1) >= -PROBABILITY_GUARD) & (raw.max(axis=-1) <= 1.0 + PROBABILITY_GUARD)
    return in_range, np.abs(raw.sum(axis=-1) - 1.0) <= SUM_TOL


def _frozen_clip(raw: np.ndarray) -> np.ndarray:
    clipped = np.clip(raw, 0.0, 1.0)
    clipped.flags.writeable = False
    return clipped


class ReleaseDistribution:
    """Probability vector for the photon count in output channel 1.

    Index i holds the probability of releasing i photons there, i running from
    0 to the stored total.  Entries are validated against small negative or
    above-one excursions and the vector must be normalized.  The guard checks
    run once per vector: release_distribution builds a row that its kernel's
    mask already passed through _from_checked, which skips them.
    """

    def __init__(self, probabilities):
        raw = np.asarray(probabilities, dtype=float)
        if raw.ndim != 1 or raw.size == 0:
            raise ParameterDomainError("probabilities must form a non-empty 1-d vector")
        in_range, normalised = _guard_checks(raw)
        if not in_range:
            raise InternalConsistencyError(
                f"probability outside [0, 1] beyond rounding: min {raw.min():.3e}, max {raw.max():.3e}"
            )
        if not normalised:
            raise InternalConsistencyError(
                f"probabilities sum to {raw.sum():.12f}, expected 1 within {SUM_TOL:.1e}"
            )
        self._probs = _frozen_clip(raw)

    @classmethod
    def _from_checked(cls, raw: np.ndarray) -> "ReleaseDistribution":
        """A distribution from a float row that already passed _guard_checks:
        clipped and frozen, not checked again."""
        distribution = cls.__new__(cls)
        distribution._probs = _frozen_clip(raw)
        return distribution

    @property
    def probabilities(self) -> np.ndarray:
        return self._probs

    def __len__(self) -> int:
        return self._probs.size

    def __getitem__(self, i) -> float:
        return float(self._probs[i])

    def mean(self) -> float:
        counts = np.arange(self._probs.size)
        return float(np.dot(counts, self._probs))

    def second_moment(self) -> float:
        counts = np.arange(self._probs.size)
        return float(np.dot(counts * counts, self._probs))

    def variance(self) -> float:
        """Centred sum of (k - mean)^2 p_k: second_moment() - mean()^2
        cancels to a few digits near a deterministic split."""
        deviations = np.arange(self._probs.size) - self.mean()
        return float(np.dot(deviations * deviations, self._probs))


# Sweep points evaluated together: bounds the complex term block, which has
# up to 65 x 65 terms a point at 64 photons.
GRID_CHUNK = 256


@functools.lru_cache(maxsize=MAX_TOTAL_PHOTONS + 1)
def _jy_eigenvectors(total: int) -> np.ndarray:
    """Eigenvectors of J_y on the spin-total/2 states |k, total - k> (k
    photons in channel 1), as the columns of a read-only unitary V in the
    order of the eigenvalues k - total/2."""
    k = np.arange(total)
    # <k + 1|J_y|k> = sqrt((k + 1)(total - k)) / 2i
    ladder = np.sqrt((k + 1.0) * (total - k)) / 2j
    _, vectors = np.linalg.eigh(np.diag(ladder, -1) + np.diag(ladder.conj(), 1))
    vectors.flags.writeable = False
    return vectors


def _unit_overlap_block(n: int, m: int, entries: np.ndarray) -> np.ndarray:
    """Raw count probabilities for n and m photons in fully overlapping
    packets, a row per column of the (4, P) entries.

    The transfer acts on the n + m photons as a rotation of spin j = (n+m)/2
    (Yurke, McCall & Klauder, PRA 33, 4033, 1986), so P(i) = |d^j_{i-j,n-j}(beta)|^2
    with cos(beta/2) = |S11|.  Column n of d(beta) = V diag(exp(-i beta mu)) V^+
    comes from the eigenvectors V of J_y and its exact eigenvalues mu, which
    is backward stable (Feng et al., PRE 92, 043307, 2015).
    """
    total = n + m
    vectors = _jy_eigenvectors(total)
    beta = 2.0 * np.arctan2(np.abs(entries[1]), np.abs(entries[0]))
    scaled = np.exp(-1j * np.multiply.outer(beta, np.arange(total + 1) - total / 2)) * vectors[n].conj()
    # a broadcast product summed over its contiguous last axis rounds every
    # row alike at any P, where matmul's rounding depends on the BLAS blocks
    column = (vectors * scaled[:, None, :]).sum(axis=-1)
    return column.real ** 2 + column.imag ** 2


@functools.lru_cache(maxsize=MAX_TOTAL_PHOTONS + 1)
def _mixture_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables for m second-packet photons, l of them shared and j
    routed, l, j = 0..m: the Pascal-triangle rows C(m - l, j), zero for
    j > m - l, as an (m + 1, 1, m + 1) array; C(m, l) as an (m + 1, 1)
    column; and the exponent m - l - j, clipped at 0, as an index."""
    spreads = np.array([[math.comb(m - l, j) for j in range(m + 1)] for l in range(m + 1)], dtype=float)
    exponents = np.maximum(np.arange(m, -1, -1)[:, None] - np.arange(m + 1), 0)
    spreads.flags.writeable = exponents.flags.writeable = False
    return spreads[:, None, :], spreads[0, :, None], exponents


def _unit_overlap_stack(n: int, m: int, entries: np.ndarray) -> np.ndarray:
    """_unit_overlap_block(n, l, entries) for l = 0..m, bit for bit, zero-padded
    into an (m + 1, P, n + m + 1) stack.  One phase table exp(-i beta h/2),
    h = -(n+m)..n+m, serves every total: total n + l takes its eigenvalues
    k - (n + l)/2 at h = 2k - n - l."""
    beta = 2.0 * np.arctan2(np.abs(entries[1]), np.abs(entries[0]))
    size = n + m
    phases = np.exp(-1j * np.multiply.outer(beta, np.arange(-size, size + 1) / 2))
    columns = np.zeros((m + 1, entries.shape[1], size + 1), dtype=complex)
    for shared in range(m + 1):
        total = n + shared
        vectors = _jy_eigenvectors(total)
        scaled = phases[:, size - total:size + total + 1:2] * vectors[n].conj()
        np.add.reduce(vectors * scaled[:, None, :], axis=-1, out=columns[shared, :, :total + 1])
    return columns.real ** 2 + columns.imag ** 2


def _mixture_block(n: int, m: int, overlap: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Raw count probabilities at packet-overlap magnitudes |s| < 1.

    Packet 2 splits into its component along packet 1, of weight |s|^2, and an
    orthogonal remainder.  Of the m second-channel photons, l share the first
    packet's mode with binomial weight C(m, l) |s|^2l (1 - |s|^2)^(m - l) and
    interfere with the n first-channel photons; the other m - l are
    distinguishable and reach channel 1 independently with probability
    |S12|^2 (Tichy, J. Phys. B 47, 103001, 2014).  The convolution of each
    unit-overlap distribution with the binomial spread of the remainder runs
    as m + 1 shift-and-add steps over the whole stack; every step is
    elementwise or sums over the l axis, so rows round alike at any P.
    """
    spread_binomials, weight_binomials, exponents = _mixture_tables(m)
    s_sq, routed = overlap ** 2, np.abs(entries[1]) ** 2
    # (P, m + 1) tables of x^k for x = |s|^2, 1 - |s|^2, r = |S12|^2 and 1 - r
    bases = np.array([s_sq, 1.0 - s_sq, routed, 1.0 - routed])
    s_pow, c_pow, r_pow, q_pow = bases[:, :, None] ** np.arange(m + 1.0)
    weights = weight_binomials * s_pow.T * c_pow.T[::-1]
    # spread[l, p, j] = C(m - l, j) r^j (1 - r)^(m - l - j), zero for j > m - l
    spread = spread_binomials * r_pow * q_pow[:, exponents].transpose(1, 0, 2)
    terms = weights[:, :, None] * spread
    stack = _unit_overlap_stack(n, m, entries)
    probs = np.zeros((overlap.size, n + m + 1))
    for shift in range(m + 1):
        # only the l <= m - shift layers have photons left to route this far
        layers = m + 1 - shift
        probs[:, shift:] += np.add.reduce(stack[:layers, :, :n + layers] * terms[:layers, :, shift, None])
    return probs


def release_probabilities(n: int, m: int, entries, overlap=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Raw photon-count distributions in output channel 1 at P points, given
    the (4, P) array of S11, S12, S21, S22 and the packet-overlap magnitude
    |s|, a number or a (P,) array.  |s| within UNIT_OVERLAP_TOL of 1 counts
    as 1: a chunk all at unit overlap takes the unit-overlap closed form, any
    other the mixture, which gives the same rows bit for bit at |s| = 1.  A
    single number at unit overlap with at most one chunk of points goes to the
    unit-overlap form in one call; its rows round alike at any P, so that
    gives the chunked result bit for bit.
    Returns the unclipped (P, n + m + 1) block and the (P,) mask of rows that
    pass ReleaseDistribution's PROBABILITY_GUARD and SUM_TOL checks.
    The overlap must be a magnitude in [0, 1 + OVERLAP_ROUNDING_TOL], as
    GramMatrix and cli._count_kernel enforce; the mask does not test it, and
    rows at |s| = 1 + 1e-6 or at -0.5 pass."""
    entries = np.asarray(entries, dtype=complex)
    overlap = np.asarray(overlap, dtype=float)
    if overlap.ndim == 0 and entries.shape[1] <= GRID_CHUNK and abs(1.0 - overlap) <= UNIT_OVERLAP_TOL:
        raw = _unit_overlap_block(n, m, entries)
    else:
        overlap = np.broadcast_to(overlap, entries.shape[1:])
        raw = np.empty((entries.shape[1], n + m + 1))
        for first in range(0, len(raw), GRID_CHUNK):
            rows = slice(first, first + GRID_CHUNK)
            unit = np.abs(1.0 - overlap[rows]) <= UNIT_OVERLAP_TOL
            if unit.all():
                raw[rows] = _unit_overlap_block(n, m, entries[:, rows])
            else:
                raw[rows] = _mixture_block(n, m, np.where(unit, 1.0, overlap[rows]), entries[:, rows])
    in_range, normalised = _guard_checks(raw)
    return raw, in_range & normalised


def release_distribution_unit_overlap(fock_input: FockInput, transfer: TransferMatrix) -> ReleaseDistribution:
    """Exact photon-count distribution in output channel 1 for unit overlap.

    Valid when the two stored packets coincide up to a phase (a pure phase on
    the overlap is a redefinition of the second packet mode and drops out).
    """
    if not fock_input.overlap.is_unit_overlap():
        raise OverlapDomainError(
            f"packet overlap magnitude is {fock_input.overlap.overlap_magnitude:.12g}; the "
            "unit-overlap distribution needs fully overlapping packets. Use "
            "release_distribution for partial overlap."
        )
    return release_distribution(fock_input, transfer)


def release_distribution(fock_input: FockInput, transfer: TransferMatrix) -> ReleaseDistribution:
    """Exact photon-count distribution in output channel 1 at any packet
    overlap: release_probabilities at one point, validated.  The guard checks
    run once, in release_probabilities: a row its mask passes becomes the
    distribution without a second check, and a failing row goes through
    ReleaseDistribution's own checks to raise their message, with the route
    appended."""
    entries = np.array((transfer.s11, transfer.s12, transfer.s21, transfer.s22)).reshape(4, 1)
    raw, passed = release_probabilities(fock_input.n, fock_input.m, entries,
                                        fock_input.overlap.overlap_magnitude)
    if passed[0]:
        return ReleaseDistribution._from_checked(raw[0])
    try:
        return ReleaseDistribution(raw[0])
    except InternalConsistencyError as exc:
        route = "unit" if fock_input.overlap.is_unit_overlap() else "partial"
        raise InternalConsistencyError(f"{exc} ({route}-overlap closed form)") from None


def mean_release_count(fock_input: FockInput, transfer: TransferMatrix, channel: int = 1) -> float:
    """Mean photon number in the requested output channel, any overlap.

    The mean does not feel the packet overlap: each input feeds the output
    through the corresponding squared matrix element.
    """
    row1, row2 = transfer.row(channel)
    return abs(row1) ** 2 * fock_input.n + abs(row2) ** 2 * fock_input.m


def release_variance(fock_input: FockInput, transfer: TransferMatrix) -> float:
    """Photon-number variance in output channel 1 for arbitrary packet overlap.

    Equals |S11 S12|^2 (2 n m |s|^2 + n + m): the two-photon interference
    contribution scales with the squared overlap magnitude while the partition
    noise of each input survives at any overlap.
    """
    n, m = fock_input.n, fock_input.m
    s_sq = fock_input.overlap.overlap_magnitude ** 2
    weight = (abs(transfer.s11) * abs(transfer.s12)) ** 2
    return weight * (2.0 * n * m * s_sq + n + m)


def fano_factor(fock_input: FockInput, transfer: TransferMatrix) -> float:
    """Variance over mean of the channel-1 count; for n = m this is
    2 |S11 S12|^2 (n |s|^2 + 1), interpolating from partition noise to
    two-photon interference noise as the overlap grows."""
    mean = mean_release_count(fock_input, transfer, channel=1)
    if mean == 0.0:
        raise UndefinedRatioError(
            "mean released photon number vanishes; the Fano factor is undefined"
        )
    return release_variance(fock_input, transfer) / mean
