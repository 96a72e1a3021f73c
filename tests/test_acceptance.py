"""Acceptance gate: ten checks covering the closed forms, the oracles and the
canned datasets.  Each test prints one PASS/FAIL line on the real stdout so the
gate is auditable from the pytest log alone."""

import math
import sys
import time

import numpy as np

from conftest import random_transfer
from storedlight import (
    FockInput,
    GramMatrix,
    HomodyneConfig,
    ModeBasis,
    PROBE_CLASSICAL,
    PROBE_QUANTUM,
    SqueezedInput,
    StageAngles,
    balanced_variance,
    build_fock_input,
    build_transfer_matrix,
    fano_factor,
    gaussian_oracle,
    general_variance,
    homodyne_oracle,
    magnetic_phase_matrix,
    mean_release_count,
    oracle_distribution,
    oracle_moments,
    release_distribution,
    release_variance,
    released_number_operator,
    released_quadratures,
    uncertainty_product,
)
from storedlight.cli import main as cli_main
from storedlight.cli import run_figure

_BASIS_CACHE = {}


def shared_basis(s):
    key = complex(s)
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = ModeBasis(key, cutoff=8)
    return _BASIS_CACHE[key]


def announce(capsys, index, label, ok, detail):
    with capsys.disabled():
        print(f"[criterion {index:02d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"criterion {index:02d} {label}: {detail}"


def test_01_unitarity(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    # the bound times the calls, so a tracer such as a coverage run sits out
    tracer = sys.gettrace()
    sys.settrace(None)
    try:
        start = time.perf_counter()
        for _ in range(10_000):
            worst = max(worst, random_transfer(rng).unitarity_defect())
        elapsed = time.perf_counter() - start
    finally:
        sys.settrace(tracer)
    ok = worst < 1e-12 and elapsed < 1.0
    announce(capsys, 1, "transfer matrices unitary", ok,
             f"max defect {worst:.2e} over 10000 pairs in {elapsed:.2f} s")


def test_02_pair_coincidence_exact_values(capsys):
    deltas = np.linspace(0.0, 2.0 * np.pi, 100)
    worst = 0.0
    for delta in deltas:
        dist = release_distribution(FockInput(1, 1), magnetic_phase_matrix(delta))
        worst = max(worst, abs(dist[1] - math.cos(delta) ** 2))
    coalescence = release_distribution(
        FockInput(1, 1), magnetic_phase_matrix(np.pi / 2))[1]
    ok = worst < 1e-12 and coalescence < 1e-12
    announce(capsys, 2, "one photon per channel follows cos^2", ok,
             f"max |P(1) - cos^2| {worst:.2e}, coalescence residue {coalescence:.2e}")


def test_03_counting_oracle_equivalence(capsys):
    rng = np.random.default_rng(103)
    basis = shared_basis(1.0)
    start = time.perf_counter()
    worst = 0.0
    states = {(n, m): build_fock_input(n, m, basis)
              for n in range(5) for m in range(5)}
    for _ in range(50):
        transfer = random_transfer(rng)
        number_op = released_number_operator(transfer, basis)
        for (n, m), state in states.items():
            closed = release_distribution(FockInput(n, m), transfer)
            oracle = oracle_distribution(state, number_op)
            worst = max(worst, float(np.max(np.abs(
                closed.probabilities - oracle.probabilities))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 60.0
    announce(capsys, 3, "count distribution matches the oracle", ok,
             f"max elementwise gap {worst:.2e} over 1250 cases in {elapsed:.1f} s")


def test_04_moment_formulas_at_general_overlap(capsys):
    rng = np.random.default_rng(104)
    worst = 0.0
    for magnitude in (0.0, 0.3, 0.7, 1.0):
        s = magnitude * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        basis = shared_basis(s)
        gram = GramMatrix(s)
        for _ in range(5):
            transfer = random_transfer(rng)
            number_op = released_number_operator(transfer, basis)
            for n in range(5):
                for m in range(5):
                    fock_input = FockInput(n, m, gram)
                    mean, variance = oracle_moments(build_fock_input(n, m, basis), number_op)
                    worst = max(worst,
                                abs(mean - mean_release_count(fock_input, transfer)),
                                abs(variance - release_variance(fock_input, transfer)))
    ok = worst < 1e-9
    announce(capsys, 4, "mean and variance formulas at general overlap", ok,
             f"max deviation {worst:.2e} across four overlap magnitudes")


def test_05_fano_factor_law(capsys):
    rng = np.random.default_rng(105)
    magnitudes_sq = np.linspace(0.0, 1.0, 6)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    worst = 0.0
    monotone = True
    for n in range(1, 5):
        for _ in range(3):
            transfer = random_transfer(rng)
            oracle_values = []
            for mag_sq in magnitudes_sq:
                s = math.sqrt(mag_sq) * phase
                basis = shared_basis(s)
                number_op = released_number_operator(transfer, basis)
                mean, variance = oracle_moments(build_fock_input(n, n, basis), number_op)
                oracle_values.append(variance / mean)
                closed = 2 * abs(transfer.s11 * transfer.s12) ** 2 * (n * mag_sq + 1)
                worst = max(worst, abs(variance / mean - closed),
                            abs(fano_factor(FockInput(n, n, GramMatrix(s)), transfer) - closed))
            steps = np.diff(oracle_values)
            monotone = monotone and bool(np.all(steps >= -1e-12))
    ok = worst < 1e-9 and monotone
    announce(capsys, 5, "equal-input Fano factor law", ok,
             f"max deviation {worst:.2e}, monotone in |s|^2: {monotone}")


def test_06_count_probability_map(capsys):
    start = time.perf_counter()
    dataset = run_figure(1)
    elapsed = time.perf_counter() - start
    grid = np.array([row[2] for row in dataset.rows]).reshape(65, 65)
    peaks = {(int(i), int(j)) for i, j in np.argwhere(grid > 1.0 - 1e-9)}
    # no mixing at phi1 = pi/8 with chi21 at 0 or 2 pi, full interchange at
    # phi1 = 3 pi/8 with chi21 = pi
    predicted = {(16, 0), (16, 64), (48, 32)}
    deep = int(np.sum(grid < 1e-6))
    ok = peaks == predicted and deep > 0 and elapsed < 30.0
    announce(capsys, 6, "six-pair probability map peaks and dips", ok,
             f"unity peaks {sorted(peaks)}, {deep} nodes below 1e-6, {elapsed:.1f} s")


def test_07_squeezed_quadrature_bounds(capsys):
    rng = np.random.default_rng(107)
    inputs = SqueezedInput(0.0, 0.0, 1.0, 1.0)
    lo, hi = np.inf, -np.inf
    for phi1 in np.linspace(0.0, np.pi / 2, 65):
        for chi21 in np.linspace(0.0, 2.0 * np.pi, 65):
            transfer = build_transfer_matrix(StageAngles(np.pi / 4, 0.0, 0.0),
                                             StageAngles(phi1, chi21, 0.0))
            var_q = released_quadratures(inputs, transfer).var_q
            lo, hi = min(lo, var_q), max(hi, var_q)
    bounds_ok = lo >= math.exp(-2.0) / 2 - 1e-10 and hi <= math.exp(2.0) / 2 + 1e-10
    worst = 0.0
    for _ in range(200):
        draw = SqueezedInput(complex(*rng.normal(0, 1.5, 2)), complex(*rng.normal(0, 1.5, 2)),
                             rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        transfer = random_transfer(rng)
        direct = released_quadratures(draw, transfer)
        oracle = gaussian_oracle(draw, transfer)
        worst = max(worst, abs(direct.mean_q - oracle.mean_q), abs(direct.mean_p - oracle.mean_p),
                    abs(direct.var_q - oracle.var_q), abs(direct.var_p - oracle.var_p))
    ok = bounds_ok and worst < 1e-10
    announce(capsys, 7, "quadrature variance bounds and covariance oracle", ok,
             f"W(q) in [{lo:.6f}, {hi:.6f}], oracle gap {worst:.2e} over 200 draws")


def test_08_uncertainty_product_floor(capsys):
    inputs = SqueezedInput(0.0, 0.0, 1.0, 0.5)
    products = np.empty((65, 65))
    for i, phi1 in enumerate(np.linspace(0.0, np.pi / 2, 65)):
        for j, chi21 in enumerate(np.linspace(0.0, 2.0 * np.pi, 65)):
            transfer = build_transfer_matrix(StageAngles(np.pi / 4, 0.0, 0.0),
                                             StageAngles(phi1, chi21, 0.0))
            products[i, j] = uncertainty_product(released_quadratures(inputs, transfer))
    floor_ok = bool(np.all(products >= 0.25 - 1e-12))
    # identity routing at (pi/4, 0) and (pi/4, 2 pi), full swap at (pi/4, pi)
    nodes = [(32, 0), (32, 32), (32, 64)]
    node_gap = max(abs(products[ij] - 0.25) for ij in nodes)
    ok = floor_ok and node_gap < 1e-10
    announce(capsys, 8, "uncertainty product floor", ok,
             f"min product {products.min():.12f}, unmixed-node gap {node_gap:.2e}")


def test_09_homodyne_closed_forms(capsys):
    rng = np.random.default_rng(109)
    worst_rel = 0.0
    worst_gap = 0.0
    for r1 in (0.0, 0.3, 0.6):
        for amp in (0.5, 1.0, 2.0):
            for _ in range(20):
                phi0, phi1, gamma, chi21 = rng.uniform(0.0, 2.0 * np.pi, 4)
                quantum = HomodyneConfig(r1, amp, gamma, StageAngles(phi0, 0.0, 0.0),
                                         StageAngles(phi1, 0.0, 0.0))
                closed = general_variance(quantum)
                oracle = homodyne_oracle(quantum, cutoff=40)
                worst_rel = max(worst_rel, abs(closed - oracle) / max(abs(oracle), 1e-30))

                classical = HomodyneConfig(r1, amp, gamma, StageAngles(0.0, 0.0, 0.0),
                                           StageAngles(np.pi / 4, chi21, 0.0),
                                           probe_treatment=PROBE_CLASSICAL)
                closed_b = balanced_variance(r1, amp, gamma, chi21)
                oracle_b = homodyne_oracle(classical, cutoff=40)
                worst_rel = max(worst_rel, abs(closed_b - oracle_b) / max(abs(oracle_b), 1e-30))

                both = [general_variance(HomodyneConfig(
                    r1, amp, gamma, StageAngles(phi0, 0.0, 0.0), StageAngles(phi1, 0.0, 0.0),
                    probe_treatment=treatment)) for treatment in (PROBE_QUANTUM, PROBE_CLASSICAL)]
                expected_gap = math.sin(2.0 * (phi1 - phi0)) ** 2 * math.sinh(r1) ** 2
                worst_gap = max(worst_gap, abs(both[0] - both[1] - expected_gap))
    ok = worst_rel < 1e-6 and worst_gap < 1e-12
    announce(capsys, 9, "count-difference variance closed forms", ok,
             f"max relative oracle gap {worst_rel:.2e}, probe-vacuum term error {worst_gap:.2e}")


def test_10_homodyne_map_regeneration(capsys, tmp_path):
    first, second = tmp_path / "map_a.csv", tmp_path / "map_b.csv"
    assert cli_main(["figure", "--id", "5", "--out", str(first)]) == 0
    assert cli_main(["figure", "--id", "5", "--out", str(second)]) == 0
    reproducible = first.read_bytes() == second.read_bytes()

    dataset = run_figure(5)
    variances = np.array([row[2] for row in dataset.rows]).reshape(65, 65)
    swing = variances.max(axis=1) - variances.min(axis=1)
    best = int(np.argmax(swing))
    ok = reproducible and best == 48 and swing[16] < 1e-8
    announce(capsys, 10, "probe-phase map regeneration", ok,
             f"byte-identical: {reproducible}, max oscillation at node {best} "
             f"(expect 48), flat-node swing {swing[16]:.2e}")
