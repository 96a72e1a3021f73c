"""Checks of storedlight's CSV output against computations of the benchmark's own.

Nothing here compares with a saved copy of earlier output.  The expected
values come from the physics the package documents, evaluated independently:
transfer matrices from the stage-angle model, the unit-overlap count
distribution as a polynomial coefficient (in 40-digit mpmath for the ladder,
in double precision on the small-N figure grid), the partial-overlap
distribution as a binomial mixture of unit-overlap distributions (Tichy,
J. Phys. B 47, 103001, 2014), the first two count moments, quadrature
variances by covariance transport, and the homodyne variance formula.  The
package's own oracles (``fock_oracle``, ``gaussian_oracle``) are consulted on
seeded samples.

Values are read back from the CSV, which holds 12 significant digits, so the
double-precision tolerance TOL sits well above that rounding (5e-13) and well
below any real fault (a probability off by 1e-9 fails).
"""

from __future__ import annotations

import math

import numpy as np

from workloads import FIG1_PHI1, WORKLOADS

TOL = 1e-11
EXACT_DIGITS = 40


class Mismatch(Exception):
    """An output differs from what the independent computation expects."""


# ----------------------------------------------------------------------
# CSV

def parse_csv(text: str, columns: tuple, rows: int) -> np.ndarray:
    """Values of a storedlight CSV as a (rows, columns) array, after checking
    its header, row count, LF newlines and 12-significant-digit cells."""
    if "\r" in text or not text.endswith("\n"):
        raise Mismatch("CSV must use LF newlines and end with one")
    lines = text[:-1].split("\n")
    if lines[0] != ",".join(columns):
        raise Mismatch(f"header {lines[0]!r}, expected {','.join(columns)!r}")
    if len(lines) - 1 != rows:
        raise Mismatch(f"{len(lines) - 1} data rows, expected {rows}")
    cells = [line.split(",") for line in lines[1:]]
    for number, row in enumerate(cells):
        if len(row) != len(columns):
            raise Mismatch(f"row {number} has {len(row)} cells, expected {len(columns)}")
        for cell in row:
            try:
                canonical = format(float(cell), ".12g")
            except ValueError:
                raise Mismatch(f"row {number}: {cell!r} is not a number") from None
            if cell != canonical:
                raise Mismatch(f"row {number}: {cell!r} is not written as {canonical!r}")
    return np.array(cells, dtype=float)


def check_axis(values: np.ndarray, expected, name: str) -> None:
    written = np.array([float(format(float(v), ".12g")) for v in np.ravel(expected)])
    if values.shape != written.shape or np.any(values != written):
        raise Mismatch(f"axis {name} does not hold the requested grid")


def check_close(values, expected, what: str, relative: bool = False) -> None:
    values, expected = np.asarray(values, dtype=float), np.asarray(expected, dtype=float)
    scale = np.maximum(1.0, np.abs(expected)) if relative else 1.0
    error = np.abs(values - expected) / scale
    worst = int(np.argmax(error))
    if not error.flat[worst] <= TOL:
        raise Mismatch(f"{what}: entry {worst} is {values.flat[worst]!r}, "
                       f"expected {expected.flat[worst]!r} within {TOL:.0e}")


# ----------------------------------------------------------------------
# transfer matrices and count distributions

def transfer(spec, lib=np):
    """(s11, s12, s21, s22) for ("delta", d) or ("angles", (phi0, chi20,
    chi30, phi1, chi21, chi31)); lib is numpy (arrays allowed) or mpmath.

    Stage angles give R(phi1) diag(e^{i dchi2}, e^{i dchi3}) R(phi0)^T with
    R(phi) = [[cos, sin], [-sin, cos]]; a magnetic phase delta gives the
    symmetric splitter e^{-i delta/2} [[cos, i sin], [i sin, cos]](delta/2).
    """
    kind, values = spec
    if lib is not np:
        values = lib.mpf(values) if kind == "delta" else [lib.mpf(v) for v in values]
    if kind == "delta":
        half = values / 2
        phase = lib.exp(-1j * half)
        diagonal, off = phase * lib.cos(half), 1j * phase * lib.sin(half)
        return diagonal, off, off, diagonal
    phi0, chi20, chi30, phi1, chi21, chi31 = values
    a, b = lib.exp(1j * (chi21 - chi20)), lib.exp(1j * (chi31 - chi30))
    c0, s0, c1, s1 = lib.cos(phi0), lib.sin(phi0), lib.cos(phi1), lib.sin(phi1)
    return (c1 * c0 * a + s1 * s0 * b, -c1 * s0 * a + s1 * c0 * b,
            -s1 * c0 * a + c1 * s0 * b, s1 * s0 * a + c1 * c0 * b)


def unit_overlap(n: int, m: int, s11, s12, s21, s22, exact: bool = False) -> list:
    """Count distribution in output 1 for identical packets.

    Input photons leave as (s11 x + s21)^n (s12 x + s22)^m in the output-1
    creation operator x; with coefficient c_i of x^i,
    P(i) = i! (n+m-i)! / (n! m!) |c_i|^2.  Entries broadcast over arrays.
    """
    first = [math.comb(n, k) * s11 ** k * s21 ** (n - k) for k in range(n + 1)]
    second = [math.comb(m, j) * s12 ** j * s22 ** (m - j) for j in range(m + 1)]
    coefficients = [0] * (n + m + 1)
    for k, a in enumerate(first):
        for j, b in enumerate(second):
            coefficients[k + j] = coefficients[k + j] + a * b
    base = math.factorial(n) * math.factorial(m)
    if exact:   # mpmath entries: keep the factorial ratio exact as well
        return [abs(c) ** 2 * math.factorial(i) * math.factorial(n + m - i) / base
                for i, c in enumerate(coefficients)]
    return [math.factorial(i) * math.factorial(n + m - i) / base * abs(c) ** 2
            for i, c in enumerate(coefficients)]


def unit_overlap_exact(n: int, m: int, spec) -> np.ndarray:
    import mpmath as mp   # only the checks need it, after the timed passes

    with mp.workdps(EXACT_DIGITS):
        probabilities = unit_overlap(n, m, *transfer(spec, mp), exact=True)
        return np.array([float(p) for p in probabilities])


def binomial(n: int, p: float) -> np.ndarray:
    return np.array([math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)])


def partial_overlap(n: int, m: int, s: float, spec) -> np.ndarray:
    """Count distribution at real overlap s: of the m second-packet photons,
    l share the first packet's mode (weight C(m,l) s^2l (1-s^2)^(m-l)) and
    interfere; the other m - l are distinguishable and reach output 1
    independently with probability |s12|^2."""
    s11, s12, s21, s22 = transfer(spec)
    out = np.zeros(n + m + 1)
    for l in range(m + 1):
        weight = math.comb(m, l) * (s * s) ** l * (1.0 - s * s) ** (m - l)
        if weight:
            out += weight * np.convolve(unit_overlap(n, l, s11, s12, s21, s22),
                                        binomial(m - l, abs(s12) ** 2))
    return out


def check_distribution(p: np.ndarray, n: int, m: int, spec, s: float = 1.0) -> None:
    """Normalisation and the first two moments: mean |s11|^2 n + |s12|^2 m,
    variance |s11 s12|^2 (2 n m s^2 + n + m)."""
    total = n + m
    if p.shape != (total + 1,):
        raise Mismatch(f"distribution has {p.size} entries, expected {total + 1}")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise Mismatch("a probability lies outside [0, 1]")
    check_close(p.sum(), 1.0, "sum of probabilities")
    s11, s12, _, _ = transfer(spec)
    t, r = abs(s11) ** 2, abs(s12) ** 2
    counts = np.arange(total + 1)
    mean = float(counts @ p)
    variance = float(counts ** 2 @ p) - mean ** 2
    scale = max(1, total)
    check_close(mean / scale, (t * n + r * m) / scale, "mean count")
    check_close(variance / scale ** 2, t * r * (2 * n * m * s * s + n + m) / scale ** 2,
                "count variance")


def check_ladder(p: np.ndarray, n: int, m: int, spec) -> None:
    check_distribution(p, n, m, spec)
    check_close(p, unit_overlap_exact(n, m, spec), f"P(i) for n={n}, m={m} against mpmath")
    s11, s12, _, _ = transfer(spec)
    if m == 0 or n == 0:
        expected = binomial(n, abs(s11) ** 2) if m == 0 else binomial(m, abs(s12) ** 2)
        check_close(p, expected, f"binomial count distribution for n={n}, m={m}")
    if n == m and abs(abs(s11) ** 2 - 0.5) < 1e-14:
        check_close(p[1::2], 0.0, f"odd counts at a balanced split, n=m={n}")


# ----------------------------------------------------------------------
# quadratures and homodyne

def quadrature_variances(s11, s12, r1: float, r2: float):
    """Released channel-1 q and p variances for real squeezing r1, r2 (input
    variances e^{-2r}/2 and e^{2r}/2): q' = Re(s11) q1 - Im(s11) p1 + ...,
    p' = Im(s11) q1 + Re(s11) p1 + ..."""
    lo1, hi1, lo2, hi2 = (0.5 * math.exp(-2 * r1), 0.5 * math.exp(2 * r1),
                          0.5 * math.exp(-2 * r2), 0.5 * math.exp(2 * r2))
    var_q = s11.real ** 2 * lo1 + s11.imag ** 2 * hi1 + s12.real ** 2 * lo2 + s12.imag ** 2 * hi2
    var_p = s11.imag ** 2 * lo1 + s11.real ** 2 * hi1 + s12.imag ** 2 * lo2 + s12.real ** 2 * hi2
    return var_q, var_p


def homodyne_variance(r1: float, alpha2_mod: float, gamma, dphi):
    """Count-difference variance, quantum probe, all control phases zero."""
    a_sq = alpha2_mod ** 2
    direct = 0.5 * math.sinh(2 * r1) ** 2 + a_sq
    cross = a_sq * (math.cosh(2 * r1) - math.sinh(2 * r1) * np.cos(2 * gamma)) + math.sinh(r1) ** 2
    return np.cos(2 * dphi) ** 2 * direct + np.sin(2 * dphi) ** 2 * cross


def check_noise_figures(tables: dict, rng) -> int:
    """Figures 2-5 (columns phi1, chi21|gamma, value) against the formulas,
    the Heisenberg bound, the product column and a gaussian_oracle sample.
    Returns the number of points checked."""
    from storedlight import SqueezedInput, gaussian_oracle
    from storedlight.mode_transform import TransferMatrix

    phi1 = FIG1_PHI1
    phase = np.linspace(0.0, 2 * math.pi, 65)
    grid_phi1, grid_phase = np.repeat(phi1, 65), np.tile(phase, 65)
    for values in tables.values():
        check_axis(values[:, 0], grid_phi1, "phi1")
        check_axis(values[:, 1], grid_phase, "chi21/gamma")
    s11, s12, _, _ = transfer(("angles", (math.pi / 4, 0.0, 0.0, grid_phi1, grid_phase, 0.0)))
    var_q, var_p = quadrature_variances(s11, s12, 1.0, 0.5)
    check_close(tables[2][:, 2], var_q, "figure 2 var_q", relative=True)
    check_close(tables[3][:, 2], var_p, "figure 3 var_p", relative=True)
    product = tables[4][:, 2]
    if np.any(product < 0.25 - TOL):
        raise Mismatch(f"figure 4: var_q*var_p = {product.min()!r} is below the Heisenberg bound 1/4")
    check_close(product, tables[2][:, 2] * tables[3][:, 2], "figure 4 product against var_q*var_p",
                relative=True)
    check_close(product, var_q * var_p, "figure 4 product", relative=True)
    inputs = SqueezedInput(alpha1=0j, alpha2=0j, r1=1.0, r2=0.5)
    for k in rng.choice(product.size, 16, replace=False):
        oracle = gaussian_oracle(inputs, TransferMatrix(*transfer(
            ("angles", (math.pi / 4, 0.0, 0.0, grid_phi1[k], grid_phase[k], 0.0)))))
        check_close([tables[2][k, 2], tables[3][k, 2]], [oracle.var_q, oracle.var_p],
                    f"gaussian_oracle at grid point {k}", relative=True)
    expected = homodyne_variance(1.0, 20.0, grid_phase, grid_phi1 - math.pi / 8)
    check_close(tables[5][:, 2], expected, "figure 5 var_k", relative=True)
    return sum(len(values) for values in tables.values())


# ----------------------------------------------------------------------
# workload-level verification

FIGURE_COLUMNS = {2: ("phi1", "chi21", "var_q"), 3: ("phi1", "chi21", "var_p"),
                  4: ("phi1", "chi21", "product"), 5: ("phi1", "gamma", "var_k")}


class Verdict:
    """Outcome of checking one pass: correctness problems, the operations
    that failed (raised or missed a check) and how many points were checked."""

    def __init__(self):
        self.problems: list[str] = []
        self.failed: set = set()
        self.checked_points = 0

    def fail(self, key, op, message: str) -> None:
        self.failed.add(key)
        if not op.fault_prone:
            self.problems.append(f"{key}: {message}")


def check_identical(first: str, later: str, what: str) -> None:
    """Byte identity of a repeated output with the first one."""
    if later != first:
        raise Mismatch(f"{what} differs from the first pass")


def _ops(slots):
    for si, slot in enumerate(slots):
        for oi, op in enumerate(slot.ops):
            yield (si, oi), op


def verify(workload: str, cli, slots, outputs: dict, seed: int) -> Verdict:
    """Check the first pass's outputs, keyed by (slot, op) index; an output
    is CSV text, or the exception an operation raised."""
    verdict = Verdict()
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), 1])
    texts = {}
    for key, op in _ops(slots):
        if isinstance(outputs[key], str):
            texts[key] = outputs[key]
        else:
            verdict.fail(key, op, f"raised {outputs[key]}")
    checker = {"count-map": _verify_count_map, "noise-map": _verify_noise_map,
               "overlap-scan": _verify_overlap_scan}[workload]
    checker(cli, slots, texts, rng, verdict)
    return verdict


def _verify_count_map(cli, slots, texts, rng, verdict) -> None:
    from storedlight import ModeBasis, build_fock_input, oracle_distribution, released_number_operator
    from storedlight.mode_transform import TransferMatrix

    rows, row_lines = {}, {}
    for key, op in _ops(slots):
        if key not in texts:
            continue
        try:
            if op.check == "fig1-row":
                values = parse_csv(texts[key], ("chi21", "probability"), 65)
                check_axis(values[:, 0], np.linspace(0.0, 2 * math.pi, 65), "chi21")
                rows[op.i], row_lines[op.i] = values[:, 1], texts[key].split("\n")[1:-1]
            else:
                total = op.n + op.m
                values = parse_csv(texts[key], ("i", "probability"), total + 1)
                check_axis(values[:, 0], np.arange(total + 1), "i")
                check_ladder(values[:, 1], op.n, op.m, op.transfer)
                verdict.checked_points += 1
        except Mismatch as exc:
            verdict.fail(key, op, str(exc))
    if len(rows) != len(FIG1_PHI1):
        return
    # figure 1 in full, against the double-precision closed form
    grid = np.array([rows[k] for k in range(len(FIG1_PHI1))])
    phase = np.linspace(0.0, 2 * math.pi, 65)
    spec = ("angles", (math.pi / 8, 0.0, 0.0, FIG1_PHI1[:, None], phase[None, :], 0.0))
    try:
        check_close(grid, unit_overlap(6, 6, *transfer(spec))[6], "figure 1 P(6)")
        verdict.checked_points += grid.size
        samples = rng.choice(grid.size, 12, replace=False)
        for k in samples[:8]:
            row, col = divmod(int(k), 65)
            point = ("angles", (math.pi / 8, 0.0, 0.0, FIG1_PHI1[row], phase[col], 0.0))
            check_close(grid[row, col], unit_overlap_exact(6, 6, point)[6],
                        f"figure 1 P(6) at ({row}, {col}) against mpmath")
        basis = ModeBasis(1.0, cutoff=12)
        state = build_fock_input(6, 6, basis)
        for k in samples[8:]:
            row, col = divmod(int(k), 65)
            point = ("angles", (math.pi / 8, 0.0, 0.0, FIG1_PHI1[row], phase[col], 0.0))
            oracle = oracle_distribution(state, released_number_operator(
                TransferMatrix(*transfer(point)), basis))
            check_close(grid[row, col], oracle[6], f"figure 1 P(6) at ({row}, {col}) against fock_oracle")
        # the row sweeps reproduce `storedlight figure --id 1` cell for cell
        figure = cli.run_figure(1).to_csv_text().split("\n")[1:-1]
        chunked = [line for k in range(len(FIG1_PHI1)) for line in row_lines[k]]
        if [line.split(",", 1)[1] for line in figure] != chunked:
            raise Mismatch("figure-1 row sweeps differ from `storedlight figure --id 1`")
    except Mismatch as exc:
        verdict.problems.append(str(exc))


def _verify_noise_map(cli, slots, texts, rng, verdict) -> None:
    tables = {}
    for key, op in _ops(slots):
        if key in texts:
            try:
                tables[op.figure] = parse_csv(texts[key], FIGURE_COLUMNS[op.figure], 65 * 65)
            except Mismatch as exc:
                verdict.fail(key, op, str(exc))
    if len(tables) != len(FIGURE_COLUMNS):
        return
    try:
        verdict.checked_points += check_noise_figures(tables, rng)
    except Mismatch as exc:
        verdict.problems.append(str(exc))


def _verify_overlap_scan(cli, slots, texts, rng, verdict) -> None:
    from workloads import Op, run_op

    for key, op in _ops(slots):
        if key not in texts:
            continue
        try:
            values = parse_csv(texts[key], ("delta", "probability"), len(op.axis))
            check_axis(values[:, 0], op.axis, "delta")
            expected = [partial_overlap(op.n, op.m, op.s, ("delta", d))[op.i] for d in op.axis]
            check_close(values[:, 1], expected, f"P({op.i}) at s={op.s:g}, n={op.n}, m={op.m}")
            verdict.checked_points += len(op.axis)
            # the full distribution at one seeded delta, through `storedlight eval`
            pick = int(rng.integers(len(op.axis)))
            delta = op.axis[pick]
            spec = ("delta", delta)
            full = run_op(cli, Op("eval", sets=("kind=fock-distribution", f"n={op.n}", f"m={op.m}",
                                                f"s={op.s!r}", f"delta={delta!r}")))
            p = parse_csv(full, ("i", "probability"), op.n + op.m + 1)[:, 1]
            check_distribution(p, op.n, op.m, spec, op.s)
            if op.s == 0.0:
                s11, s12, _, _ = transfer(spec)
                check_close(p, np.convolve(binomial(op.n, abs(s11) ** 2), binomial(op.m, abs(s12) ** 2)),
                            "s = 0 against two independent binomials")
            if op.s == 1.0:
                check_close(p, unit_overlap_exact(op.n, op.m, spec), "s = 1 against the unit-overlap form")
            if full.split("\n")[1 + op.i].split(",")[1] != texts[key].split("\n")[1 + pick].split(",")[1]:
                raise Mismatch(f"sweep and eval disagree on P({op.i}) at delta={delta!r}")
        except Mismatch as exc:
            verdict.fail(key, op, str(exc))
