import math

import numpy as np
import pytest

from conftest import random_transfer
from storedlight import (
    PROBE_CLASSICAL,
    CapacityError,
    FockInput,
    GramMatrix,
    HomodyneConfig,
    InternalConsistencyError,
    ModeBasis,
    OccupationBasis,
    ParameterDomainError,
    SqueezedInput,
    StageAngles,
    TruncatedState,
    build_fock_input,
    fano_factor,
    gaussian_oracle,
    homodyne_oracle,
    magnetic_phase_matrix,
    mean_release_count,
    oracle_distribution,
    oracle_moments,
    release_distribution,
    release_variance,
    released_number_operator,
)


class TestOccupationBasis:
    def test_single_mode_ladder(self):
        # a^dag |k-1> = sqrt(k) |k> and a^dag a |k> = k |k>
        for k in range(1, 5):
            upper, raised = OccupationBasis(1, k - 1).raised([1.0], [1.0])
            assert upper.states.tolist() == [[k]]
            assert raised[0] == pytest.approx(np.sqrt(k), abs=1e-15)
            assert upper.apply([[1.0]], [1.0])[0] == pytest.approx(k)

    def test_commutator_below_cutoff(self):
        # <o|a a^dag|o> - <o|a^dag a|o> = |a^dag o|^2 - o_k = 1 on every state:
        # a sector holds every composition, so raising never leaves the basis
        basis = OccupationBasis(2, 3)
        for row in range(basis.dim):
            for mode in range(2):
                unit = np.eye(basis.dim)[row]
                _, raised = basis.raised(np.eye(2)[mode], unit)
                number = np.diag(np.eye(2)[mode])
                commutator = np.vdot(raised, raised) - np.vdot(unit, basis.apply(number, unit))
                assert commutator.real == pytest.approx(1.0, abs=1e-12)

    def test_one_body_operators_commute_like_their_matrices(self, rng):
        # [A(h), A(g)] = A([h, g]) for A(h) = sum_jk h_jk a_j^dag a_k
        basis = OccupationBasis(3, 4)
        h, g = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))

        def dense(matrix):
            return np.column_stack([basis.apply(matrix, unit) for unit in np.eye(basis.dim)])

        assert np.allclose(dense(h) @ dense(g) - dense(g) @ dense(h), dense(h @ g - g @ h),
                           atol=1e-12)

    def test_index_round_trip(self):
        basis = OccupationBasis(3, 2)
        assert basis.rows_of(basis.states).tolist() == list(range(basis.dim))
        with pytest.raises(ParameterDomainError):
            basis.rows_of((5, 0, 0))
        with pytest.raises(ParameterDomainError):
            basis.rows_of((0, 1, 3))   # shares its code with (0, 2, 0)

    def test_sector_indices(self):
        for modes, total in [(1, 3), (2, 5), (4, 0), (4, 6)]:
            basis = OccupationBasis(modes, total)
            assert basis.dim == math.comb(total + modes - 1, modes - 1)
            assert (basis.states.sum(axis=1) == total).all()
            assert sorted(map(tuple, basis.states)) == list(map(tuple, basis.states))


class TestModeBasis:
    def test_packet_overlap_is_the_gram_entry(self):
        s = 0.6 * np.exp(0.8j)
        mode_basis = ModeBasis(s, cutoff=2)
        one_in_packet = [
            OccupationBasis(4, 0).raised(mode_basis.storage_packet_op(1, packet).conj(), [1.0])[1]
            for packet in (1, 2)
        ]
        assert np.vdot(one_in_packet[0], one_in_packet[0]) == pytest.approx(1.0)
        assert np.vdot(one_in_packet[1], one_in_packet[1]) == pytest.approx(1.0)
        assert np.vdot(one_in_packet[0], one_in_packet[1]) == pytest.approx(s)

    def test_rejects_overlap_above_one(self):
        with pytest.raises(ParameterDomainError):
            ModeBasis(1.2, cutoff=2)

    def test_accepts_gram_matrix(self):
        mode_basis = ModeBasis(GramMatrix(0.5j), cutoff=2)
        assert mode_basis.s == 0.5j
        assert mode_basis.t == pytest.approx(np.sqrt(0.75))


class TestBuildFockInput:
    @pytest.mark.parametrize("s", [0.0, 0.3 * np.exp(1.1j), 0.7, 1.0])
    def test_states_are_normalized(self, s):
        mode_basis = ModeBasis(s, cutoff=4)
        for n, m in [(0, 0), (1, 0), (0, 3), (2, 2), (4, 4)]:
            state = build_fock_input(n, m, mode_basis)
            assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
            assert state.total == n + m

    def test_capacity_gate(self):
        mode_basis = ModeBasis(1.0, cutoff=3)
        with pytest.raises(CapacityError) as info:
            build_fock_input(4, 0, mode_basis)
        assert info.value.required == 4


class TestTruncatedState:
    def test_rejects_unnormalized_amplitudes(self):
        basis = OccupationBasis(2, 2)
        with pytest.raises(InternalConsistencyError):
            TruncatedState(np.array([0.5, 0.0, 0.0]), basis)


class TestInputChecks:
    @pytest.mark.parametrize("build,message", [
        (lambda: OccupationBasis(0, 1), "need num_modes >= 1 and total >= 0"),
        (lambda: ModeBasis(0.5, cutoff=2).storage_packet_op(3, 1),
         "channel and Schmidt index must each be 1 or 2, got 3, 1"),
        (lambda: ModeBasis(0.5, cutoff=2).storage_packet_op(1, 3), "packet must be 1 or 2, got 3"),
        (lambda: TruncatedState(np.array([1.0, 0.0]), OccupationBasis(2, 2)),
         "amplitude vector has shape (2,), expected (3,)"),
        (lambda: build_fock_input(-1, 0, ModeBasis(1.0, cutoff=2)), "photon numbers must be >= 0, got n=-1, m=0"),
        (lambda: gaussian_oracle(SqueezedInput(1.0, 0.5j, 0.3, -0.2), magnetic_phase_matrix(0.7), channel=3),
         "channel must be 1 or 2, got 3"),
    ], ids=["modes", "mode-channel", "packet", "amplitudes", "photon-numbers", "gaussian-channel"])
    def test_domain_errors(self, build, message):
        with pytest.raises(ParameterDomainError) as raised:
            build()
        assert str(raised.value) == message

    def test_classical_homodyne_oracle_refuses_a_lossy_cutoff(self):
        # balanced mixing, so only the squeezed vacuum's tail past the cutoff stops it
        config = HomodyneConfig(2.0, 1.0, 0.0, StageAngles(0.0, 0.0, 0.0), StageAngles(math.pi / 4, 0.0, 0.0),
                                probe_treatment=PROBE_CLASSICAL)
        with pytest.raises(CapacityError) as raised:
            homodyne_oracle(config, cutoff=4)
        assert str(raised.value) == "squeezed vacuum loses probability 5.246e-01 at cutoff 4"
        assert raised.value.required is None


class TestReleasedNumberOperator:
    def test_hermitian_and_vacuum_empty(self, rng):
        for s in (1.0, 0.4 * np.exp(0.9j)):
            mode_basis = ModeBasis(s, cutoff=3)
            op = released_number_operator(random_transfer(rng), mode_basis)
            assert op.shape == (4, 4)
            assert np.abs(op - op.conj().T).max() < 1e-12
            # no entry links the two Schmidt components
            assert not op[np.ix_([0, 2], [1, 3])].any() and not op[np.ix_([1, 3], [0, 2])].any()
            vacuum = TruncatedState([1.0], OccupationBasis(4, 0))
            assert abs(vacuum.expectation(op)) < 1e-14

    def test_channel_sum_counts_everything(self, rng):
        # at unit overlap the two released channels exhaust the photons
        mode_basis = ModeBasis(1.0, cutoff=3)
        transfer = random_transfer(rng)
        total_op = (released_number_operator(transfer, mode_basis, channel=1)
                    + released_number_operator(transfer, mode_basis, channel=2))
        state = build_fock_input(2, 1, mode_basis)
        assert state.expectation(total_op).real == pytest.approx(3.0, abs=1e-12)
        # the sector is whole, so a total above the cutoff is no obstacle here
        state = build_fock_input(3, 3, mode_basis)
        assert state.expectation(total_op).real == pytest.approx(6.0, abs=1e-12)


class TestOracleAgaintClosedForms:
    def test_distribution_at_unit_overlap(self, rng):
        mode_basis = ModeBasis(1.0, cutoff=4)
        for _ in range(5):
            transfer = random_transfer(rng)
            n, m = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            state = build_fock_input(n, m, mode_basis)
            op = released_number_operator(transfer, mode_basis)
            got = oracle_distribution(state, op)
            want = release_distribution(FockInput(n, m), transfer)
            assert np.allclose(got.probabilities, want.probabilities, atol=1e-11)

    def test_distribution_at_partial_overlap(self, rng):
        worst = 0.0
        for _ in range(40):
            n, m = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            s = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            transfer = random_transfer(rng)
            mode_basis = ModeBasis(s, cutoff=n + m)
            got = release_distribution(FockInput(n, m, GramMatrix(s)), transfer)
            want = oracle_distribution(build_fock_input(n, m, mode_basis),
                                       released_number_operator(transfer, mode_basis))
            worst = max(worst, float(np.max(np.abs(got.probabilities - want.probabilities))))
        assert worst < 1e-12

    @pytest.mark.parametrize("n,m,overlaps", [
        (6, 18, (0.0, 0.6 * np.exp(2.1j), 0.999 * np.exp(-0.7j))),
        (12, 12, (0.0, 0.6 * np.exp(2.1j), 0.999)),
        (18, 6, (0.3 * np.exp(-1.2j),)),
        (1, 23, (0.999j,)),
    ])
    def test_distribution_at_partial_overlap_up_to_24_photons(self, n, m, overlaps, rng):
        for s in overlaps:
            transfer = random_transfer(rng)
            mode_basis = ModeBasis(s, cutoff=n + m)
            got = oracle_distribution(build_fock_input(n, m, mode_basis),
                                      released_number_operator(transfer, mode_basis))
            want = release_distribution(FockInput(n, m, GramMatrix(s)), transfer)
            assert np.max(np.abs(got.probabilities - want.probabilities)) < 1e-12

    def test_moments_at_partial_overlap(self, rng):
        s = 0.6 * np.exp(0.3j)
        mode_basis = ModeBasis(s, cutoff=4)
        fock_input = FockInput(2, 2, GramMatrix(s))
        for _ in range(5):
            transfer = random_transfer(rng)
            state = build_fock_input(2, 2, mode_basis)
            op = released_number_operator(transfer, mode_basis)
            mean, variance = oracle_moments(state, op)
            assert np.allclose(mean, mean_release_count(fock_input, transfer), atol=1e-11)
            assert np.allclose(variance, release_variance(fock_input, transfer), atol=1e-10)

    def test_moments_match_distribution(self, rng):
        mode_basis = ModeBasis(1.0, cutoff=4)
        transfer = random_transfer(rng)
        state = build_fock_input(2, 2, mode_basis)
        op = released_number_operator(transfer, mode_basis)
        dist = oracle_distribution(state, op)
        mean, variance = oracle_moments(state, op)
        assert dist.mean() == pytest.approx(mean, abs=1e-11)
        assert dist.variance() == pytest.approx(variance, abs=1e-10)

    def test_fano_against_oracle(self, rng):
        for s_mag in (0.0, 0.5, 1.0):
            mode_basis = ModeBasis(s_mag, cutoff=4)
            transfer = magnetic_phase_matrix(0.8)
            state = build_fock_input(2, 2, mode_basis)
            op = released_number_operator(transfer, mode_basis)
            mean, variance = oracle_moments(state, op)
            closed = fano_factor(FockInput(2, 2, GramMatrix(s_mag)), transfer)
            assert np.allclose(variance / mean, closed, atol=1e-10)

    def test_open_sector_is_refused(self, rng):
        # cutoff 3 cannot hold a closed 4-photon sector of the packet modes
        mode_basis = ModeBasis(0.5, cutoff=3)
        state = build_fock_input(2, 2, mode_basis)
        op = released_number_operator(random_transfer(rng), mode_basis)
        with pytest.raises(CapacityError):
            oracle_distribution(state, op)

    def test_operator_linking_the_schmidt_blocks_is_refused(self):
        mode_basis = ModeBasis(0.5, cutoff=4)
        state = build_fock_input(1, 1, mode_basis)
        op = released_number_operator(magnetic_phase_matrix(0.4), mode_basis)
        op[0, 1] = op[1, 0] = 0.1
        with pytest.raises(InternalConsistencyError, match="Schmidt"):
            oracle_distribution(state, op)

    def test_unoccupied_blocks_are_checked(self):
        # at unit overlap every photon sits in Schmidt 1; weight 0.5 on a
        # Schmidt-2 mode puts half-integer eigenvalues only in empty blocks
        mode_basis = ModeBasis(1.0, cutoff=2)
        state = build_fock_input(1, 1, mode_basis)
        op = np.diag([1.0, 0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(InternalConsistencyError, match="integer"):
            oracle_distribution(state, op)
