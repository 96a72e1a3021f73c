"""The benchmark's checks accept storedlight's real output and reject wrong output.

    python3 -m pytest bench/test_checks.py -q
"""

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import storedlight.cli as cli  # noqa: E402
from storedlight import ModeBasis, build_fock_input, oracle_distribution, released_number_operator  # noqa: E402
from storedlight.errors import SimulationError  # noqa: E402
from storedlight.mode_transform import TransferMatrix  # noqa: E402

from checks import (  # noqa: E402
    FIGURE_COLUMNS,
    Mismatch,
    check_close,
    check_distribution,
    check_identical,
    check_ladder,
    check_noise_figures,
    parse_csv,
    partial_overlap,
    transfer,
    unit_overlap_exact,
    verify,
)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Raised, build, run_op  # noqa: E402


def ladder(n, m, spec):
    op = Op("eval", sets=("kind=fock-distribution", f"n={n}", f"m={m}", f"delta={spec[1]!r}"))
    return parse_csv(run_op(cli, op), ("i", "probability"), n + m + 1)[:, 1]


@pytest.fixture(scope="module")
def noise_tables():
    return {fid: parse_csv(cli.run_figure(fid).to_csv_text(), columns, 65 * 65)
            for fid, columns in FIGURE_COLUMNS.items()}


def test_ladder_accepts_the_program_output():
    for n, m in ((3, 2), (12, 12), (0, 7), (9, 0)):
        spec = ("delta", 1.1)
        check_ladder(ladder(n, m, spec), n, m, spec)


def test_one_probability_moved_by_1e9_fails():
    spec = ("delta", 1.1)
    p = ladder(6, 6, spec)
    p[5] += 1e-9
    with pytest.raises(Mismatch):
        check_ladder(p, 6, 6, spec)
    # the mpmath comparison alone also sees it
    with pytest.raises(Mismatch, match="mpmath"):
        check_close(p, unit_overlap_exact(6, 6, spec), "against mpmath")


def test_moment_off_its_formula_fails():
    spec = ("delta", 0.7)
    p = unit_overlap_exact(5, 4, spec)
    check_distribution(p, 5, 4, spec)
    shifted = p.copy()
    shifted[3], shifted[4] = shifted[3] - 1e-8, shifted[4] + 1e-8   # same sum, mean + 1e-8
    with pytest.raises(Mismatch, match="mean"):
        check_distribution(shifted, 5, 4, spec)
    widened = p.copy()
    widened[2:5] += np.array([1e-7, -2e-7, 1e-7])                     # same sum and mean
    with pytest.raises(Mismatch, match="variance"):
        check_distribution(widened, 5, 4, spec)


def test_binomial_and_odd_count_checks_fail_on_wrong_output():
    spec = ("delta", 2.0)
    p = ladder(0, 7, spec)
    wrong = np.array([math.comb(7, k) * 0.3 ** k * 0.7 ** (7 - k) for k in range(8)])
    with pytest.raises(Mismatch):
        check_ladder(wrong, 0, 7, spec)
    balanced = ("delta", math.pi / 2)
    p = ladder(4, 4, balanced)
    check_ladder(p, 4, 4, balanced)
    p[1], p[0] = 1e-9, p[0] - 1e-9
    with pytest.raises(Mismatch):
        check_ladder(p, 4, 4, balanced)


def test_noise_figures_accept_the_program_output(noise_tables):
    assert check_noise_figures(noise_tables, np.random.default_rng(0)) == 4 * 65 * 65


@pytest.mark.parametrize("figure,change,match", [
    (4, lambda t: t.__setitem__((100, 2), 0.2499), "Heisenberg"),
    (4, lambda t: t.__setitem__((100, 2), t[100, 2] * (1 + 1e-9)), "product"),
    (2, lambda t: t.__setitem__((7, 2), t[7, 2] * (1 + 1e-9)), "var_q"),
    (3, lambda t: t.__setitem__((7, 2), t[7, 2] + 1e-9), "var_p"),
    (5, lambda t: t.__setitem__((300, 2), t[300, 2] * (1 + 1e-9)), "var_k"),
])
def test_noise_figures_reject_wrong_output(noise_tables, figure, change, match):
    tables = {fid: table.copy() for fid, table in noise_tables.items()}
    change(tables[figure])
    with pytest.raises(Mismatch, match=match):
        check_noise_figures(tables, np.random.default_rng(0))


def test_partial_overlap_form_matches_the_fock_oracle():
    rng = np.random.default_rng(5)
    for n, m in ((2, 2), (3, 1), (1, 3)):
        s = float(rng.uniform(0.05, 0.95))
        spec = ("delta", float(rng.uniform(0, 2 * math.pi)))
        basis = ModeBasis(s, cutoff=n + m)
        oracle = oracle_distribution(build_fock_input(n, m, basis),
                                     released_number_operator(TransferMatrix(*transfer(spec)), basis))
        np.testing.assert_allclose(partial_overlap(n, m, s, spec), oracle.probabilities, atol=1e-13)
        check_distribution(partial_overlap(n, m, s, spec), n, m, spec, s)
        with pytest.raises(Mismatch, match="variance"):
            check_distribution(partial_overlap(n, m, 1.0, spec), n, m, spec, s)


def test_csv_format_is_enforced():
    good = "i,probability\n0,0.25\n1,0.75\n"
    parse_csv(good, ("i", "probability"), 2)
    for bad in ("i,probability\r\n0,0.25\r\n1,0.75\r\n", "i,p\n0,0.25\n1,0.75\n",
                "i,probability\n0,0.250000000000001\n1,0.75\n", "i,probability\n0,0.25\n"):
        with pytest.raises(Mismatch):
            parse_csv(bad, ("i", "probability"), 2)


def test_one_changed_csv_byte_fails_identity():
    text = cli.run_figure(5).to_csv_text()
    check_identical(text, cli.run_figure(5).to_csv_text(), "figure 5")
    position = text.index("\n", 1000) - 1
    changed = text[:position] + ("1" if text[position] != "1" else "2") + text[position + 1:]
    with pytest.raises(Mismatch):
        check_identical(text, changed, "figure 5")


def test_tracer_skips_names_a_module_no_longer_has():
    bare = types.SimpleNamespace(run_single=lambda config: "done")
    tracer = Tracer()
    tracer.install(bare)
    try:
        assert bare.run_single(None) == "done"
    finally:
        tracer.remove()
    metrics = tracer.metrics(1)
    assert metrics["cli.points"] == 1 and metrics["fock_oracle.calls"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_workload_pass_verifies_and_one_wrong_cell_fails(workload):
    slots = build(workload, 7)
    outputs = {}
    for si, slot in enumerate(slots):
        for oi, op in enumerate(slot.ops):
            try:
                outputs[si, oi] = run_op(cli, op)
            except SimulationError as exc:
                outputs[si, oi] = Raised(exc)
    clean = verify(workload, cli, slots, outputs, 7)
    assert clean.problems == [] and clean.checked_points > 0
    assert all(slots[si].ops[oi].fault_prone for si, oi in clean.failed)
    # the last cell of the first operation, moved by one part in 1e9
    text = outputs[0, 0]
    head, _, last = text[:-1].rpartition(",")
    value = float(last)
    outputs[0, 0] = head + "," + format(value + 1e-9 * max(1.0, abs(value)), ".12g") + "\n"
    assert verify(workload, cli, slots, outputs, 7).problems
