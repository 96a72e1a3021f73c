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
"""

from __future__ import annotations

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
from .mode_transform import GramMatrix, TransferMatrix

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


def _powers(base: complex, count: int) -> np.ndarray:
    """[1, base, base^2, ...] of the given length, by cumulative products."""
    out = np.empty(count, dtype=complex)
    out[0] = 1.0
    if count > 1:
        np.cumprod(np.full(count - 1, base, dtype=complex), out=out[1:])
    return out


def _unit_overlap_probabilities(n: int, m: int, transfer: TransferMatrix) -> np.ndarray:
    """Raw, unvalidated count probabilities in output channel 1 for n and m
    photons in fully overlapping packets.

    The probability of i photons is a squared interference sum over the ways
    of routing k of the n first-channel photons and i - k of the m
    second-channel photons into channel 1.
    """
    total = n + m
    p11 = _powers(transfer.s11, n + 1)
    p21 = _powers(transfer.s21, n + 1)
    p12 = _powers(transfer.s12, m + 1)
    p22 = _powers(transfer.s22, m + 1)
    comb_n = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    comb_m = np.array([math.comb(m, j) for j in range(m + 1)], dtype=float)

    probs = np.empty(total + 1, dtype=float)
    base = math.factorial(n) * math.factorial(m)
    for i in range(total + 1):
        k = np.arange(max(0, i - m), min(n, i) + 1)
        terms = (
            comb_n[k] * comb_m[i - k]
            * p11[k] * p21[n - k] * p12[i - k] * p22[m - i + k]
        )
        amplitude = complex(terms.sum())
        # exact integer ratio, rounded once on conversion to float
        weight = math.factorial(i) * math.factorial(total - i) / base
        probs[i] = weight * (amplitude.real ** 2 + amplitude.imag ** 2)
    return probs


def _binomial(count: int, p: float) -> np.ndarray:
    """Distribution of successes in count independent trials of probability p."""
    return np.array([math.comb(count, j) * p ** j * (1.0 - p) ** (count - j)
                     for j in range(count + 1)])


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
    return ReleaseDistribution(_unit_overlap_probabilities(fock_input.n, fock_input.m, transfer))


def release_distribution(fock_input: FockInput, transfer: TransferMatrix) -> ReleaseDistribution:
    """Exact photon-count distribution in output channel 1 at any packet overlap.

    Packet 2 splits into its component along packet 1, of weight |s|^2, and an
    orthogonal remainder.  Of the m second-channel photons, l share the first
    packet's mode with binomial weight C(m, l) |s|^2l (1 - |s|^2)^(m - l) and
    interfere with the n first-channel photons; the other m - l are
    distinguishable and reach channel 1 independently with probability
    |S12|^2 (Tichy, J. Phys. B 47, 103001, 2014).  At unit overlap this is
    exactly release_distribution_unit_overlap.
    """
    if fock_input.overlap.is_unit_overlap():
        return release_distribution_unit_overlap(fock_input, transfer)
    n, m = fock_input.n, fock_input.m
    s_sq = fock_input.overlap.overlap_magnitude ** 2
    routed = abs(transfer.s12) ** 2
    probs = np.zeros(n + m + 1, dtype=float)
    for shared in range(m + 1):
        weight = math.comb(m, shared) * s_sq ** shared * (1.0 - s_sq) ** (m - shared)
        if weight:
            probs += weight * np.convolve(_unit_overlap_probabilities(n, shared, transfer),
                                          _binomial(m - shared, routed))
    return ReleaseDistribution(probs)


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
