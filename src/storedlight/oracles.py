"""Brute-force verifiers of the closed forms, kept off the production path:
no closed-form module imports this one, and no oracle shares algebra with the
closed form it checks.

Fock oracle.  For packet overlap s, an orthonormal (Schmidt) pair e1, e2 with

    f1 = e1,          f2 = s e1 + sqrt(1 - |s|^2) e2

makes every packet operator a 4-vector of coefficients over four bosonic
modes (two channels times two Schmidt components) and a released
photon-number operator the 4x4 one-body matrix h of sum_jk h_jk a_j^dag a_k.
Only the input's total-photon sector is enumerated; h conserves the photon
count of each Schmidt component, so that sector splits into blocks that are
diagonalised densely one at a time.

Homodyne oracle.  Squeezed vacuum times a coherent probe in a two-mode number
basis cut at a total photon number, with the count difference applied sector
by sector; a classical probe leaves only the signal mode quantum.

Covariance oracle.  The inputs' 4x4 quadrature covariance and means are
transported through the symplectic image of the transfer matrix, and the
symplectic spectrum is checked to stay pure.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Optional

import numpy as np

from .errors import CapacityError, InternalConsistencyError, ParameterDomainError
from .fock_interference import ReleaseDistribution
from .gaussian_states import QuadratureStats, SqueezedInput
from .homodyne import PROBE_CLASSICAL, HomodyneConfig
from .mode_transform import GramMatrix, TransferMatrix

# ----------------------------------------------------------------------
# Fock oracle

DEFAULT_CUTOFF = 8

# Matrix representations must be Hermitian to this tolerance.
HERMITICITY_TOL = 1e-12

# Constructed states must come out normalized to this tolerance.
STATE_NORM_TOL = 1e-10

# Eigenvalues of a photon-number operator on a closed sector must sit on
# integers; anything farther off than this is a construction failure.
EIGENVALUE_ROUND_TOL = 1e-6

# Above this overlap magnitude the general number-operator combination is
# singular and the exact unit-overlap reduction is used instead.
_UNIT_OVERLAP_SWITCH = 1e-12

# Schmidt component (0 or 1) of each of ModeBasis's four modes.
_SCHMIDT = np.arange(4) % 2


class OccupationBasis:
    """Occupation-number states of a few bosonic modes that hold exactly
    ``total`` photons, in lexicographic order."""

    def __init__(self, num_modes: int, total: int):
        if num_modes < 1 or total < 0:
            raise ParameterDomainError("need num_modes >= 1 and total >= 0")
        self.num_modes = num_modes
        self.total = total
        # stars and bars: the bar positions of each composition of total
        bars = np.array(list(itertools.combinations(range(total + num_modes - 1), num_modes - 1)),
                        dtype=np.int64)
        self.states = np.diff(bars, axis=1, prepend=-1, append=total + num_modes - 1) - 1
        self.dim = self.states.shape[0]
        # big-endian codes in base total + 1 rise in lexicographic order
        self._strides = (total + 1) ** np.arange(num_modes - 1, -1, -1, dtype=np.int64)
        self._codes = self.states @ self._strides

    def rows_of(self, occupations) -> np.ndarray:
        """Rows of the given occupations, one per row of the (K, num_modes) array."""
        occupations = np.asarray(occupations, dtype=np.int64).reshape(-1, self.num_modes)
        rows = np.searchsorted(self._codes, occupations @ self._strides)
        found = rows < self.dim
        found[found] = (self.states[rows[found]] == occupations[found]).all(axis=1)
        if not found.all():
            raise ParameterDomainError(
                f"occupation {occupations[~found][0].tolist()} is not in the basis "
                f"of {self.total} photons"
            )
        return rows

    def raised(self, coefficients, amplitudes) -> tuple["OccupationBasis", np.ndarray]:
        """sum_k c_k a_k^dag applied to amplitudes over this basis: the basis
        of the next sector and the amplitudes over it."""
        upper = OccupationBasis(self.num_modes, self.total + 1)
        rows, k = np.nonzero(upper.states)   # each state with each occupied mode
        lowered = upper.states[rows]
        lowered[np.arange(rows.size), k] -= 1
        out = np.zeros(upper.dim, dtype=complex)
        np.add.at(out, rows, np.asarray(coefficients)[k] * np.sqrt(upper.states[rows, k])
                  * np.asarray(amplitudes)[self.rows_of(lowered)])
        return upper, out

    def one_body_elements(self, h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Matrix elements of sum_jk h_jk a_j^dag a_k on this sector as
        (rows, columns, values), one entry per nonzero h_jk and state."""
        h = np.asarray(h, dtype=complex)
        j, k = np.nonzero(h)
        pair, cols = np.nonzero(self.states[:, k].T)   # the states a_k finds a photon in
        j, k, at = j[pair], k[pair], np.arange(pair.size)
        moved = self.states[cols]
        moved[at, k] -= 1
        moved[at, j] += 1
        values = h[j, k] * np.sqrt(self.states[cols, k] * moved[at, j])
        return self.rows_of(moved), cols, values

    def apply(self, h, amplitudes) -> np.ndarray:
        """sum_jk h_jk a_j^dag a_k applied to amplitudes over this sector."""
        rows, cols, values = self.one_body_elements(h)
        image = np.zeros(self.dim, dtype=complex)
        np.add.at(image, rows, values * np.asarray(amplitudes)[cols])
        return image


class ModeBasis:
    """Four-mode Schmidt basis for two channels sharing two packet modes.

    Mode order is (channel 1, Schmidt 1), (channel 1, Schmidt 2),
    (channel 2, Schmidt 1), (channel 2, Schmidt 2).  The overlap s fixes the
    packet operators: packet 1 of channel j is the first Schmidt mode, packet
    2 is conj(s) a_{j,1} + sqrt(1 - |s|^2) a_{j,2}.  Each operator is returned
    as its 4-vector of mode coefficients.
    """

    def __init__(self, overlap, cutoff: int = DEFAULT_CUTOFF):
        if not isinstance(overlap, GramMatrix):
            overlap = GramMatrix(complex(overlap))
        self.s = overlap.s_overlap
        self.t = math.sqrt(max(0.0, 1.0 - abs(self.s) ** 2))
        self.cutoff = int(cutoff)

    def _mode(self, channel: int, schmidt: int) -> int:
        if channel not in (1, 2) or schmidt not in (1, 2):
            raise ParameterDomainError(
                f"channel and Schmidt index must each be 1 or 2, got {channel}, {schmidt}"
            )
        return 2 * (channel - 1) + (schmidt - 1)

    def storage_packet_op(self, channel: int, packet: int) -> np.ndarray:
        """Mode coefficients of the annihilation operator of a stored packet."""
        op = np.zeros(4, dtype=complex)
        if packet == 1:
            op[self._mode(channel, 1)] = 1.0
        elif packet == 2:
            op[self._mode(channel, 1)] = self.s.conjugate()
            op[self._mode(channel, 2)] = self.t
        else:
            raise ParameterDomainError(f"packet must be 1 or 2, got {packet!r}")
        return op

    def release_packet_op(self, transfer: TransferMatrix, channel: int, packet: int) -> np.ndarray:
        """Mode coefficients of a released packet mode: the channel index is
        rotated by the transfer matrix, the packet structure is untouched."""
        row1, row2 = transfer.row(channel)
        return row1 * self.storage_packet_op(1, packet) + row2 * self.storage_packet_op(2, packet)


class TruncatedState:
    """State vector over one OccupationBasis sector, kept normalized, with
    the per-mode cutoff of the mode basis it was built for."""

    def __init__(self, amplitudes, basis: OccupationBasis, cutoff: Optional[int] = None):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (basis.dim,):
            raise ParameterDomainError(
                f"amplitude vector has shape {amplitudes.shape}, expected ({basis.dim},)"
            )
        norm = float(np.linalg.norm(amplitudes))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise InternalConsistencyError(
                f"state norm is {norm:.12f}, expected 1 within {STATE_NORM_TOL:.1e}"
            )
        self.amplitudes = amplitudes
        self.basis = basis
        self.total = basis.total
        self.cutoff = cutoff

    def expectation(self, h) -> complex:
        """Expectation of the one-body operator sum_jk h_jk a_j^dag a_k."""
        return complex(np.vdot(self.amplitudes, self.basis.apply(h, self.amplitudes)))


def build_fock_input(n: int, m: int, mode_basis: ModeBasis) -> TruncatedState:
    """Stored input state: n photons in packet 1 of channel 1, m photons in
    packet 2 of channel 2, raised from the vacuum one sector at a time."""
    if n < 0 or m < 0:
        raise ParameterDomainError(f"photon numbers must be >= 0, got n={n}, m={m}")
    needed = max(n, m)
    if needed > mode_basis.cutoff:
        raise CapacityError(
            f"photon numbers n={n}, m={m} need a per-mode cutoff of at least {needed}, "
            f"basis has {mode_basis.cutoff}",
            required=needed,
        )
    basis, vec = OccupationBasis(4, 0), np.ones(1, dtype=complex)
    create2 = mode_basis.storage_packet_op(2, 2).conj()
    for _ in range(m):
        basis, vec = basis.raised(create2, vec)
    create1 = mode_basis.storage_packet_op(1, 1).conj()
    for _ in range(n):
        basis, vec = basis.raised(create1, vec)
    vec /= math.sqrt(math.factorial(n) * math.factorial(m))
    return TruncatedState(vec, basis, mode_basis.cutoff)


def released_number_operator(transfer: TransferMatrix, mode_basis: ModeBasis,
                             channel: int = 1) -> np.ndarray:
    """One-body matrix h of the photon-number operator of one released
    output channel, sum_jk h_jk a_j^dag a_k over ModeBasis's four modes.

    For partial overlap the packet modes are not orthogonal and the counting
    operator is the Gram-weighted combination of the two released packet
    operators divided by 1 - |s|^2; at unit overlap the two packets are one
    mode and the operator reduces to a plain number operator.  Conditioning
    degrades as |s| approaches 1, where the reduction takes over.  Either way
    h must be Hermitian and must not link the two Schmidt components; the
    rounding residue of those links is set to zero.
    """
    s = mode_basis.s
    x1 = mode_basis.release_packet_op(transfer, channel, 1)
    if abs(abs(s) - 1.0) <= _UNIT_OVERLAP_SWITCH:
        h = np.outer(x1.conj(), x1)
    else:
        # sum_pq X_p^dag (G^-1)_pq X_q over the packets' inverse Gram matrix
        packets = np.array([x1, mode_basis.release_packet_op(transfer, channel, 2)])
        inverse_gram = np.array([[1.0, -s], [-s.conjugate(), 1.0]]) / (1.0 - abs(s) ** 2)
        h = packets.conj().T @ inverse_gram @ packets
    defect = float(np.max(np.abs(h - h.conj().T)))
    if defect > HERMITICITY_TOL:
        raise InternalConsistencyError(f"number operator is not Hermitian: deviation {defect:.3e}")
    links = _SCHMIDT[:, None] != _SCHMIDT[None, :]
    worst = float(np.max(np.abs(h[links])))
    if worst > HERMITICITY_TOL:
        raise InternalConsistencyError(
            f"number operator links the two Schmidt components: entry {worst:.3e}"
        )
    h[links] = 0.0
    return h


def _require_closed_sector(state: TruncatedState) -> int:
    if state.cutoff is not None and state.total > state.cutoff:
        raise CapacityError(
            f"total photon number {state.total} exceeds the cutoff {state.cutoff}; "
            "a mode of the sector could hold more photons than the basis allows",
            required=state.total,
        )
    return state.total


def oracle_distribution(state: TruncatedState, number_op) -> ReleaseDistribution:
    """Full count distribution by spectral projection of the number operator.

    The operator conserves the photon count of each Schmidt component, so the
    state's sector is eigendecomposed one block at a time, each block a dense
    Hermitian matrix.  Every block is checked, occupied or not: each
    eigenvalue must round cleanly to an integer between 0 and the total.
    """
    total = _require_closed_sector(state)
    basis = state.basis
    rows, cols, values = basis.one_body_elements(number_op)
    block_of = basis.states[:, _SCHMIDT == 0].sum(axis=1)
    if np.any(block_of[rows] != block_of[cols]):
        raise InternalConsistencyError("number operator links the two Schmidt components")
    position = np.zeros(basis.dim, dtype=np.int64)
    probs = np.zeros(total + 1)
    for key in np.unique(block_of):
        members = np.nonzero(block_of == key)[0]
        position[members] = np.arange(members.size)
        inside = block_of[cols] == key
        block = np.zeros((members.size, members.size), dtype=complex)
        np.add.at(block, (position[rows[inside]], position[cols[inside]]), values[inside])
        eigenvalues, vectors = np.linalg.eigh(block)
        counts = np.rint(eigenvalues)
        worst = float(np.max(np.abs(eigenvalues - counts)))
        if worst > EIGENVALUE_ROUND_TOL:
            raise InternalConsistencyError(
                f"number-operator eigenvalue off an integer by {worst:.3e}; "
                "the truncated representation is inconsistent"
            )
        if counts.min() < 0 or counts.max() > total:
            raise InternalConsistencyError(
                f"eigenvalues span {counts.min():.0f}..{counts.max():.0f}, outside 0..{total}"
            )
        np.add.at(probs, counts.astype(int),
                  np.abs(vectors.conj().T @ state.amplitudes[members]) ** 2)
    return ReleaseDistribution(probs)


def _moments(psi: np.ndarray, image: np.ndarray) -> tuple[float, float]:
    """Mean and variance of a Hermitian operator in the normalized state psi,
    image being the operator applied to psi."""
    mean = float(np.real(np.vdot(psi, image)))
    return mean, float(np.real(np.vdot(image, image))) - mean * mean


def oracle_moments(state: TruncatedState, number_op) -> tuple[float, float]:
    """Mean and variance of the released count, straight from matrix algebra."""
    _require_closed_sector(state)
    return _moments(state.amplitudes, state.basis.apply(number_op, state.amplitudes))


# ----------------------------------------------------------------------
# homodyne oracle

HOMODYNE_CUTOFF = 32

# Probability mass the truncated input state may lose beyond the cutoff.
TAIL_TOL = 1e-10

# A transfer matrix counts as balanced when all intensity splittings are
# within this distance of one half.
BALANCED_TOL = 1e-12


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


def _quantum_oracle(config: HomodyneConfig, cutoff: int) -> float:
    """(squeezed vacuum) x (coherent probe) evolved through the transfer
    matrix.  The difference operator K conserves total photon number, so each
    sector of N photons (N + 1 states) is taken on its own and a total-number
    truncation is exact apart from the input tail."""
    _check_tail(config.r1, config.alpha2, cutoff)
    sq = _squeezed_vacuum_coefficients(config.r1, cutoff + 1)
    coh = _coherent_coefficients(config.alpha2, cutoff + 1)

    # K = sum_jk w_jk a_j^dag a_k with w = S^dag diag(1, -1) S
    s = config.transfer.matrix
    weights = np.outer(s[0].conj(), s[0]) - np.outer(s[1].conj(), s[1])
    sectors = [OccupationBasis(2, total) for total in range(cutoff + 1)]
    parts = [sq[basis.states[:, 0]] * coh[basis.states[:, 1]] for basis in sectors]
    image = np.concatenate([basis.apply(weights, part) for basis, part in zip(sectors, parts)])
    psi = np.concatenate(parts)
    norm = np.linalg.norm(psi)
    return _moments(psi / norm, image / norm)[1]


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
    return _moments(sq, operator @ sq)[1]


def homodyne_oracle(config: HomodyneConfig, cutoff: int = HOMODYNE_CUTOFF) -> float:
    """Truncated Fock-space variance of the released count difference.

    Honors probe_treatment: the quantum route keeps both modes, the classical
    route replaces the probe by a c-number and requires balanced mixing.
    """
    if cutoff < 2:
        raise ParameterDomainError(f"cutoff must be at least 2, got {cutoff}")
    if config.probe_treatment == PROBE_CLASSICAL:
        return _classical_oracle(config, cutoff)
    return _quantum_oracle(config, cutoff)


# ----------------------------------------------------------------------
# covariance-matrix oracle

# Symplectic eigenvalues of a pure Gaussian state must equal 1/2 to this
# tolerance after transport through the transfer matrix.
PURITY_TOL = 1e-10

VACUUM_VARIANCE = 0.5


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
