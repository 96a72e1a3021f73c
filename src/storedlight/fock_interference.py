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

# Largest total photon number a FockInput accepts by default; the closed
# forms are tested up to it.
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
    max_total: int = MAX_TOTAL_PHOTONS

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
        if self.total > self.max_total:
            raise CapacityError(
                f"total photon number {self.total} exceeds the configured maximum {self.max_total}",
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


class ReleaseDistribution:
    """Probability vector for the photon count in output channel 1.

    Index i holds the probability of releasing i photons there, i running from
    0 to the stored total.  Entries are validated against small negative or
    above-one excursions and the vector must be normalized.
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
        clipped = np.clip(raw, 0.0, 1.0)
        clipped.flags.writeable = False
        self._probs = clipped

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
        return self.second_moment() - self.mean() ** 2


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


def _mixture_block(n: int, m: int, overlap: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Raw count probabilities at packet-overlap magnitudes |s| < 1.

    Packet 2 splits into its component along packet 1, of weight |s|^2, and an
    orthogonal remainder.  Of the m second-channel photons, l share the first
    packet's mode with binomial weight C(m, l) |s|^2l (1 - |s|^2)^(m - l) and
    interfere with the n first-channel photons; the other m - l are
    distinguishable and reach channel 1 independently with probability
    |S12|^2 (Tichy, J. Phys. B 47, 103001, 2014).
    """
    s_sq = overlap ** 2
    routed = np.abs(entries[1])[:, None] ** 2
    probs = np.zeros((overlap.size, n + m + 1))
    for shared in range(m + 1):
        weight = math.comb(m, shared) * s_sq ** shared * (1.0 - s_sq) ** (m - shared)
        rows = np.flatnonzero(weight)
        if rows.size == 0:
            continue
        j = np.arange(m - shared + 1)
        spread = (np.array([math.comb(m - shared, x) for x in j], dtype=float)
                  * routed[rows] ** j * (1.0 - routed[rows]) ** (m - shared - j))
        # row by row: np.convolve's BLAS dot products fuse multiply-adds,
        # which no numpy array expression reproduces bit for bit
        for row, unit, binomial in zip(rows, _unit_overlap_block(n, shared, entries[:, rows]), spread):
            probs[row] += weight[row] * np.convolve(unit, binomial)
    return probs


def release_probabilities(n: int, m: int, entries, overlap=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Raw photon-count distributions in output channel 1 at P points, given
    the (4, P) array of S11, S12, S21, S22 and the packet-overlap magnitude
    |s|, a number or a (P,) array.  |s| within UNIT_OVERLAP_TOL of 1 takes
    the unit-overlap closed form, smaller |s| the mixture.  Returns the
    unclipped (P, n + m + 1) block and the (P,) mask of rows that pass
    ReleaseDistribution's PROBABILITY_GUARD and SUM_TOL checks."""
    entries = np.asarray(entries, dtype=complex)
    overlap = np.broadcast_to(np.asarray(overlap, dtype=float), entries.shape[1:])
    raw = np.empty((entries.shape[1], n + m + 1))
    for first in range(0, len(raw), GRID_CHUNK):
        rows = np.arange(first, min(first + GRID_CHUNK, len(raw)))
        whole = np.abs(1.0 - overlap[rows]) <= UNIT_OVERLAP_TOL
        unit, part = rows[whole], rows[~whole]
        if unit.size:
            raw[unit] = _unit_overlap_block(n, m, entries[:, unit])
        if part.size:
            raw[part] = _mixture_block(n, m, overlap[part], entries[:, part])
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
    overlap: release_probabilities at one point, validated."""
    entries = [[transfer.s11], [transfer.s12], [transfer.s21], [transfer.s22]]
    raw, _ = release_probabilities(fock_input.n, fock_input.m, entries, fock_input.overlap.overlap_magnitude)
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
