"""Closed-form counting statistics for stored Fock states released in two steps.

A number state with n photons is written into the first packet of channel 1
and one with m photons into the second packet of channel 2.  After the release
stages mix the channels, the photon number in output channel 1 follows an
interference distribution.  When the two packets overlap completely the
distribution has an exact closed form.  At partial overlap the second packet
splits into a part along the first packet, which interferes, and an orthogonal
remainder whose photons are distinguishable; the distribution is then an exact
binomial mixture of unit-overlap distributions, each convolved with the
independent routing of the remainder's photons.

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

# Largest total photon number the closed form is exercised at.  Binomial
# coefficients up to C(64, 32) convert to float with full relative precision.
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
        low, high = float(raw.min()), float(raw.max())
        if low < -PROBABILITY_GUARD or high > 1.0 + PROBABILITY_GUARD:
            raise InternalConsistencyError(
                f"probability outside [0, 1] beyond rounding: min {low:.3e}, max {high:.3e}"
            )
        total = float(raw.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise InternalConsistencyError(
                f"probabilities sum to {total:.12f}, expected 1 within {SUM_TOL:.1e}"
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
# up to 1,089 terms a point (n = m = 32).
GRID_CHUNK = 256


def _powers(base: np.ndarray, count: int) -> np.ndarray:
    """Rows [1, b, b^2, ...] of the given length for each b of a (P,) array."""
    out = np.ones((base.size, count), dtype=complex)
    np.cumprod(np.broadcast_to(base[:, None], (base.size, count - 1)), axis=1, out=out[:, 1:])
    return out


@functools.lru_cache(maxsize=128)
def _term_tables(n: int, m: int):
    """Index, coefficient and weight tables of the interference sums for n
    and m photons.  The terms of all counts lie back to back, the counts
    grouped by their number of terms, so each group is a contiguous (counts,
    terms) block a point that numpy sums in the pairwise order of a 1-d sum."""
    by_size = {}
    for i in range(n + m + 1):
        by_size.setdefault(min(n, i) - max(0, i - m) + 1, []).append(i)
    ks, ics, groups, start = [], [], [], 0
    for size, counts in by_size.items():
        counts = np.array(counts)
        ks.append((np.maximum(0, counts - m)[:, None] + np.arange(size)).ravel())
        ics.append(np.repeat(counts, size))
        groups.append((counts, start, start + counts.size * size, size))
        start += counts.size * size
    k, i = np.concatenate(ks), np.concatenate(ics)
    comb_n = np.array([math.comb(n, x) for x in range(n + 1)], dtype=float)
    comb_m = np.array([math.comb(m, x) for x in range(m + 1)], dtype=float)
    base = math.factorial(n) * math.factorial(m)
    # exact integer ratios, each rounded once on conversion to float
    weight = np.array([math.factorial(x) * math.factorial(n + m - x) / base for x in range(n + m + 1)])
    tables = (k, n - k, i - k, m - i + k, comb_n[k] * comb_m[i - k], weight)
    for table in tables:
        table.flags.writeable = False
    return tables, groups


def _unit_overlap_block(n: int, m: int, entries: np.ndarray) -> np.ndarray:
    """Raw count probabilities for n and m photons in fully overlapping
    packets, a row per column of the (4, P) entries.  P(i) is a squared
    interference sum over the ways of routing k of the n first-channel
    photons and i - k of the m second-channel photons into channel 1."""
    s11, s12, s21, s22 = entries
    (k, n_k, j, m_j, coef, weight), groups = _term_tables(n, m)
    terms = np.ascontiguousarray(coef * _powers(s11, n + 1)[:, k] * _powers(s21, n + 1)[:, n_k]
                                 * _powers(s12, m + 1)[:, j] * _powers(s22, m + 1)[:, m_j])
    amplitude = np.empty((len(terms), n + m + 1), dtype=complex)
    for counts, start, stop, size in groups:
        amplitude[:, counts] = terms[:, start:stop].reshape(len(terms), counts.size, size).sum(axis=-1)
    # float_power rounds as Python's x ** 2 does; x * x can differ in the last bit
    return weight * (np.float_power(amplitude.real, 2) + np.float_power(amplitude.imag, 2))


def _mixture_block(n: int, m: int, overlap: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Raw count probabilities at packet-overlap magnitudes |s| < 1.

    Packet 2 splits into its component along packet 1, of weight |s|^2, and an
    orthogonal remainder.  Of the m second-channel photons, l share the first
    packet's mode with binomial weight C(m, l) |s|^2l (1 - |s|^2)^(m - l) and
    interfere with the n first-channel photons; the other m - l are
    distinguishable and reach channel 1 independently with probability
    |S12|^2 (Tichy, J. Phys. B 47, 103001, 2014).
    """
    s_sq = np.float_power(overlap, 2)
    routed = np.float_power(np.hypot(entries[1].real, entries[1].imag), 2)[:, None]
    probs = np.zeros((overlap.size, n + m + 1))
    for shared in range(m + 1):
        weight = math.comb(m, shared) * np.float_power(s_sq, shared) * np.float_power(1.0 - s_sq, m - shared)
        rows = np.flatnonzero(weight)
        if rows.size == 0:
            continue
        j = np.arange(m - shared + 1)
        spread = (np.array([math.comb(m - shared, x) for x in j], dtype=float)
                  * np.float_power(routed[rows], j) * np.float_power(1.0 - routed[rows], m - shared - j))
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
    ok = ((raw.min(axis=1) >= -PROBABILITY_GUARD) & (raw.max(axis=1) <= 1.0 + PROBABILITY_GUARD)
          & (np.abs(raw.sum(axis=1) - 1.0) <= SUM_TOL))
    return raw, ok


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
