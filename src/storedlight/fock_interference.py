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
the remainder's photons.  One routine builds the d-matrix columns of both:
a stack over the shared photon numbers l = 0..m for the mixture, and its
last layer l = m alone at unit overlap.

release_probabilities evaluates both forms at once on a grid of transfer
matrices and packet overlaps, array in and array out, with the transfers and
the overlaps on axes of their own: the mixture builds what it needs of each
transfer once and the weights of each overlap once, in fixed-size chunks.
release_distribution is that kernel at a single point, with its validation
and error messages.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    InternalConsistencyError,
    ParameterDomainError,
    UndefinedRatioError,
)
from .mode_transform import OVERLAP_ROUNDING_TOL, UNIT_OVERLAP_TOL, GramMatrix, TransferMatrix, _entry_stack

# Largest total photon number a FockInput accepts; the closed forms are
# tested up to it.
MAX_TOTAL_PHOTONS = 64

# -i h/2 at index MAX_TOTAL_PHOTONS + h: the exponents of the d-matrix phase table
_HALF_STEP_EXPONENTS = -0.5j * np.arange(-MAX_TOTAL_PHOTONS, MAX_TOTAL_PHOTONS + 1)
_HALF_STEP_EXPONENTS.flags.writeable = False

# Raw probabilities outside [0, 1] by more than this indicate a bug rather
# than accumulated rounding; smaller excursions are clamped.
PROBABILITY_GUARD = 1e-9

# The distribution must sum to one within this tolerance.
SUM_TOL = 1e-10


def _photon_numbers(n, m) -> tuple[int, int]:
    """n and m as ints, each a non-negative integer and together at most
    MAX_TOTAL_PHOTONS."""
    for name, value in (("n", n), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ParameterDomainError(f"photon number {name} must be an integer, got {value!r}")
        if value < 0:
            raise ParameterDomainError(f"photon number {name} must be >= 0, got {value}")
    n, m = int(n), int(m)
    if n + m > MAX_TOTAL_PHOTONS:
        raise CapacityError(f"total photon number {n + m} exceeds the cap of {MAX_TOTAL_PHOTONS}",
                            required=n + m)
    return n, m


@dataclass(frozen=True)
class FockInput:
    """Stored number-state input: n photons in packet 1 of channel 1 and
    m photons in packet 2 of channel 2, with the packet overlap attached."""

    n: int
    m: int
    overlap: GramMatrix = field(default_factory=lambda: GramMatrix(1.0))

    def __post_init__(self):
        n, m = _photon_numbers(self.n, self.m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        if not isinstance(self.overlap, GramMatrix):
            raise ParameterDomainError("overlap must be a GramMatrix")

    @property
    def total(self) -> int:
        return self.n + self.m


def _guard_checks(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each probability vector along the last axis of raw stays in
    [0, 1] within PROBABILITY_GUARD, and whether it sums to 1 within SUM_TOL.
    Written as conditions to pass, so a NaN fails both."""
    # the ufunc reductions behind ndarray.min, max and sum, without their Python layer
    in_range = ((np.minimum.reduce(raw, axis=-1) >= -PROBABILITY_GUARD)
                & (np.maximum.reduce(raw, axis=-1) <= 1.0 + PROBABILITY_GUARD))
    return in_range, np.abs(np.add.reduce(raw, axis=-1) - 1.0) <= SUM_TOL


def _frozen_clip(raw: np.ndarray) -> np.ndarray:
    clipped = raw.clip(0.0, 1.0)
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


@functools.lru_cache(maxsize=MAX_TOTAL_PHOTONS + 1)
def _binomial_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables for j of m - l photons, l, j = 0..m: the
    Pascal-triangle rows C(m - l, j), zero for j > m - l, as an
    (m + 1, m + 1, 1) array, and the exponent m - l - j, clipped at 0, as an
    index."""
    binomials = np.array([[math.comb(m - l, j) for j in range(m + 1)] for l in range(m + 1)], dtype=float)
    exponents = np.maximum(np.arange(m, -1, -1)[:, None] - np.arange(m + 1), 0)
    binomials.flags.writeable = exponents.flags.writeable = False
    return binomials[:, :, None], exponents


# np.power rounds its SIMD and scalar loops differently, so every table of
# powers below is taken along a contiguous axis of exponents 0..m

def _binomial_spread(m: int, p: np.ndarray) -> np.ndarray:
    """C(m - l, j) p^j (1 - p)^(m - l - j) at [l, j, t] for each of the (T,)
    probabilities p, zero for j > m - l: j of m - l photons that each take a
    route with probability p."""
    binomials, exponents = _binomial_tables(m)
    p_pow, q_pow = np.array([p, 1.0 - p])[:, :, None] ** np.arange(m + 1.0)
    return binomials * p_pow.T * q_pow.T[exponents]


def _unit_overlap_stack(n: int, m: int, entries: np.ndarray, lowest: int = 0) -> np.ndarray:
    """Raw count probabilities for n and l photons in fully overlapping
    packets, l = lowest..m, as an (m + 1 - lowest, P, n + m + 1) stack with a
    row per column of the (4, P) entries, zero past count n + l.

    The transfer acts on the n + l photons as a rotation of spin
    j = (n+l)/2 (Yurke, McCall & Klauder, PRA 33, 4033, 1986), so
    P(i) = |d^j_{i-j,n-j}(beta)|^2 with cos(beta/2) = |S11|.  Column n of
    d(beta) = V diag(exp(-i beta mu)) V^+ comes from the eigenvectors V of J_y
    and its exact eigenvalues mu, which is backward stable (Feng et al., PRE
    92, 043307, 2015).  One phase table exp(-i beta h/2) serves every total:
    total n + l takes its eigenvalues k - (n + l)/2 at h = 2k - n - l, so a
    single layer needs only the h of its total's parity."""
    beta = 2.0 * np.arctan2(np.abs(entries[1]), np.abs(entries[0]))
    size, step = n + m, 1 if lowest < m else 2
    exponents = _HALF_STEP_EXPONENTS[MAX_TOTAL_PHOTONS - size:MAX_TOTAL_PHOTONS + size + 1:step]
    phases = np.exp(np.multiply.outer(beta, exponents))
    columns = np.zeros((m + 1 - lowest, entries.shape[1], size + 1), dtype=complex)
    for shared in range(lowest, m + 1):
        total = n + shared
        vectors = _jy_eigenvectors(total)
        scaled = phases[:, (size - total) // step:(size + total) // step + 1:2 // step] * vectors[n].conj()
        # a broadcast product summed over its contiguous last axis rounds every
        # row alike at any P, where matmul's rounding depends on the BLAS blocks
        np.add.reduce(vectors * scaled[:, None, :], axis=-1, out=columns[shared - lowest, :, :total + 1])
    return columns.real ** 2 + columns.imag ** 2


def _transfer_tables(n: int, m: int, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mixture's tables of the (4, T) transfers, T on the last axis: the
    spread Bin(m - l, |S12|^2) of the m - l unshared photons and the stack."""
    return _binomial_spread(m, np.abs(entries[1]) ** 2), _unit_overlap_stack(n, m, entries).swapaxes(1, 2)


def _mixture_block(n: int, m: int, weights: np.ndarray, spread: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Raw count probabilities at P points of partial packet overlap, a row
    per point, from the (m + 1, 1 or P) weights of their overlaps and the
    tables of their transfers, P on the last axis.

    Packet 2 splits into its component along packet 1, of weight |s|^2, and an
    orthogonal remainder.  Of the m second-channel photons, l share the first
    packet's mode with binomial weight C(m, l) |s|^2l (1 - |s|^2)^(m - l) and
    interfere with the n first-channel photons; the other m - l are
    distinguishable and reach channel 1 independently with probability
    |S12|^2 (Tichy, J. Phys. B 47, 103001, 2014).  The convolution of each
    unit-overlap distribution with the binomial spread of the remainder runs
    as m + 1 shift-and-add steps over the whole stack; every step is
    elementwise or sums over the l axis in order, so rows round alike at any
    P.  At |s| = 1 the weights pick layer m, whose rows come out bit for bit.
    """
    terms = weights[:, None, :] * spread
    shifted = np.zeros((m + 1, n + m + 1, spread.shape[-1]))
    for shift in range(m + 1):
        # only the l <= m - shift layers have photons left to route this far
        layers = m + 1 - shift
        np.add.reduce(stack[:layers, :n + layers] * terms[:layers, shift, None], out=shifted[shift, shift:])
    # from 0, the shifts in order, as adding each into a zeroed row would
    return np.add.reduce(shifted, initial=0.0).T


def release_probabilities(n: int, m: int, entries, overlap=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Raw photon-count distributions in output channel 1 on the grid that
    the (4, *A) array of S11, S12, S21, S22 and the packet-overlap magnitude
    |s|, a number or an array, span when broadcast together.

    A number overlap and an array of overlaps each take one route, a loop over
    chunks of GRID_CHUNK transfers.  The mixture builds its stack and spread
    once per transfer and its weights once per overlap, and combines them
    GRID_CHUNK points at a time.  |s| within UNIT_OVERLAP_TOL of 1 counts as 1,
    where the mixture gives the unit-overlap rows bit for bit; a number
    overlap there takes the stack's last layer l = m alone.  The weights of
    the overlaps C(m, l) |s|^2l (1 - |s|^2)^(m - l) are the spread's row
    l = 0 at |s|^2.
    Returns the unclipped (*grid, n + m + 1) block and the grid's mask of rows
    that pass ReleaseDistribution's PROBABILITY_GUARD and SUM_TOL checks at an
    |s| in [0, 1 + OVERLAP_ROUNDING_TOL], the magnitudes GramMatrix accepts;
    an |s| outside it weighs in as NaN and fails the mask.  n and m are
    checked as FockInput checks them, and entries whose leading axis is not 4
    raise ParameterDomainError."""
    n, m = _photon_numbers(n, m)
    entries = _entry_stack(entries, 4, "S11, S12, S21, S22")
    overlap = np.asarray(overlap, dtype=float)
    transfers = entries.reshape(4, -1)
    count = transfers.shape[1]
    if overlap.ndim == 0:
        s = float(overlap)
        usable = 0.0 <= s <= 1.0 + OVERLAP_ROUNDING_TOL
        s = s if usable else math.nan
        unit = abs(1.0 - s) <= UNIT_OVERLAP_TOL
        weights = None if unit else _binomial_spread(m, np.array([s * s]))[0]
        raw = np.empty((count, n + m + 1))
        for first in range(0, count, GRID_CHUNK):
            block = transfers[:, first:first + GRID_CHUNK]
            raw[first:first + GRID_CHUNK] = (_unit_overlap_stack(n, m, block, m)[0] if unit else
                                             _mixture_block(n, m, weights, *_transfer_tables(n, m, block)))
        raw = raw.reshape(entries.shape[1:] + (n + m + 1,))
    else:
        s = overlap.ravel()
        usable = (s >= 0.0) & (s <= 1.0 + OVERLAP_ROUNDING_TOL)
        # each grid point's transfer and overlap, as positions in the flat arrays
        transfer_of, overlap_of = np.broadcast_arrays(np.arange(count).reshape(entries.shape[1:]),
                                                      np.arange(overlap.size).reshape(overlap.shape))
        grid, transfer_of, overlap_of = transfer_of.shape, transfer_of.ravel(), overlap_of.ravel()
        weights = _binomial_spread(m, np.select([usable & (np.abs(1.0 - s) <= UNIT_OVERLAP_TOL), usable],
                                                [1.0, s], np.nan) ** 2)[0]
        raw = np.empty((transfer_of.size, n + m + 1))
        # the grid's points, grouped by the chunk of transfers that serves them
        order = np.argsort(transfer_of, kind="stable")
        groups = np.split(order, np.searchsorted(transfer_of, range(GRID_CHUNK, count, GRID_CHUNK), sorter=order))
        for first, served in zip(range(0, count, GRID_CHUNK), groups):
            spread, stack = _transfer_tables(n, m, transfers[:, first:first + GRID_CHUNK])
            for points in np.split(served, range(GRID_CHUNK, served.size, GRID_CHUNK)):
                rows = transfer_of[points] - first
                raw[points] = _mixture_block(n, m, weights[:, overlap_of[points]], np.take(spread, rows, axis=2),
                                             np.take(stack, rows, axis=2))
        raw, usable = raw.reshape(grid + (n + m + 1,)), usable[overlap_of].reshape(grid)
    in_range, normalised = _guard_checks(raw)
    # at m = 0 the weight is NaN^0 = 1, so an unusable overlap can leave a passing row
    return raw, in_range & normalised & usable


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
