import numpy as np
import pytest

from conftest import random_transfer
from storedlight import (
    CapacityError,
    FockInput,
    GramMatrix,
    InternalConsistencyError,
    ModeBasis,
    OccupationBasis,
    ParameterDomainError,
    TruncatedState,
    build_fock_input,
    fano_factor,
    magnetic_phase_matrix,
    mean_release_count,
    oracle_distribution,
    oracle_moments,
    release_distribution,
    release_distribution_unit_overlap,
    release_variance,
    released_number_operator,
)


class TestOccupationBasis:
    def test_single_mode_ladder(self):
        basis = OccupationBasis(1, 3)
        lowering = basis.annihilation_matrix(0).toarray()
        expected = np.diag(np.sqrt([1.0, 2.0, 3.0]), k=1)
        assert np.allclose(lowering, expected)
        assert np.allclose(basis.creation_matrix(0).toarray(), expected.conj().T)

    def test_commutator_below_cutoff(self):
        basis = OccupationBasis(2, 4)
        a = basis.annihilation_matrix(0)
        comm = (a @ a.conj().T - a.conj().T @ a).toarray()
        # canonical on every state that the raising operator keeps in range
        interior = basis.states[:, 0] < basis.cutoff
        assert np.allclose(comm[np.ix_(interior, interior)],
                           np.eye(basis.dim)[np.ix_(interior, interior)])

    def test_index_round_trip(self):
        basis = OccupationBasis(3, 2)
        for row, occupation in enumerate(basis.states):
            assert basis.index_of(occupation) == row
        assert basis.states[basis.vacuum_index].sum() == 0
        with pytest.raises(ParameterDomainError):
            basis.index_of((5, 0, 0))

    def test_total_cutoff_prunes_states(self):
        full = OccupationBasis(2, 3)
        capped = OccupationBasis(2, 3, total_cutoff=3)
        assert full.dim == 16
        assert capped.dim == 10
        assert capped.states.sum(axis=1).max() == 3

    def test_sector_indices(self):
        basis = OccupationBasis(2, 3)
        for total in range(4):
            rows = basis.sector_indices(total)
            assert all(basis.states[r].sum() == total for r in rows)
        assert basis.sector_indices(2).size == 3

    def test_dimension_budget(self):
        with pytest.raises(CapacityError):
            OccupationBasis(4, 50, max_dimension=10_000)


class TestModeBasis:
    def test_packet_overlap_is_the_gram_entry(self):
        s = 0.6 * np.exp(0.8j)
        mode_basis = ModeBasis(s, cutoff=2)
        vac = np.zeros(mode_basis.basis.dim)
        vac[mode_basis.basis.vacuum_index] = 1.0
        one_in_packet = [
            mode_basis.storage_packet_op(1, packet).conj().T @ vac
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
        basis = OccupationBasis(1, 2)
        with pytest.raises(InternalConsistencyError):
            TruncatedState(np.array([0.5, 0.0, 0.0]), basis)


class TestReleasedNumberOperator:
    def test_hermitian_and_vacuum_empty(self, rng):
        for s in (1.0, 0.4 * np.exp(0.9j)):
            mode_basis = ModeBasis(s, cutoff=3)
            op = released_number_operator(random_transfer(rng), mode_basis)
            assert abs(op - op.conj().T).max() < 1e-12
            vac = np.zeros(mode_basis.basis.dim)
            vac[mode_basis.basis.vacuum_index] = 1.0
            assert abs(np.vdot(vac, op @ vac)) < 1e-14

    def test_channel_sum_counts_everything(self, rng):
        # at unit overlap the two released channels exhaust the photons
        mode_basis = ModeBasis(1.0, cutoff=3)
        transfer = random_transfer(rng)
        total_op = (released_number_operator(transfer, mode_basis, channel=1)
                    + released_number_operator(transfer, mode_basis, channel=2))
        state = build_fock_input(2, 1, mode_basis)
        assert state.expectation(total_op).real == pytest.approx(3.0, abs=1e-12)


class TestOracleAgaintClosedForms:
    def test_distribution_at_unit_overlap(self, rng):
        mode_basis = ModeBasis(1.0, cutoff=4)
        for _ in range(5):
            transfer = random_transfer(rng)
            n, m = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            state = build_fock_input(n, m, mode_basis)
            op = released_number_operator(transfer, mode_basis)
            got = oracle_distribution(state, op)
            want = release_distribution_unit_overlap(FockInput(n, m), transfer)
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
