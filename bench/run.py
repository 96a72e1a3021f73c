"""The storedlight benchmark: one command for every workload.

    python3 bench/run.py --workload count-map --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports storedlight from ``src/`` there.
With ``--trace 0`` it prints the end-to-end metrics (set-up time, points per
second, peak resident memory); with ``--trace 1`` the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

# The timed process is serial: BLAS gets one thread, set before numpy loads.
# On the 2-core host a second OpenBLAS thread only spins and makes timings
# less steady; set-up probes and pool workers inherit the setting.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

from checks import Mismatch, check_identical, verify  # noqa: E402
from timing import REF_SECONDS, ReferenceClock, time_reference  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import REFERENCE, WORKLOADS, Raised, build, run_op  # noqa: E402

SETUP_PROBES = 13
IMPORT_PROBES = 3
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# set-up

def measure_setup(workload: str, seed: int) -> list[float]:
    """Interpreter start to package imported and inputs built, once per fresh
    interpreter, in seconds of the linear-algebra reference: importing maps
    shared libraries and faults in pages as well as running module code, and
    that reference, which has both, gave the steadiest set-up medians."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = time_reference("linear-algebra")
        start = time.monotonic()
        done = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        ready = float(done.stdout.split()[-1])
        after = time_reference("linear-algebra")
        samples.append((ready - start) * REF_SECONDS / (0.5 * (before + after)))
    return samples


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times() -> tuple[float, float]:
    """Median cumulative import time of storedlight.cli, and of the scipy
    packages it pulls in, from ``python -X importtime``."""
    package, scipy = [], []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import sys; sys.path.insert(0, 'src'); import storedlight.cli"],
                              cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        entries = [(len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6)
                   for m in map(_IMPORT_LINE.match, done.stderr.splitlines()) if m]
        package.append(sum(t for depth, name, t in entries if name == "storedlight.cli" and depth == 1))
        scipy.append(_root_total(entries, "scipy"))
    return statistics.median(package), statistics.median(scipy)


def _root_total(entries, prefix: str) -> float:
    """Cumulative time of the outermost imports of a package.  importtime
    lists a module after the modules it imported, one level deeper."""
    total, inside = 0.0, None
    for depth, name, seconds in reversed(entries):
        if inside is not None and depth <= inside:
            inside = None
        if inside is None and (name == prefix or name.startswith(prefix + ".")):
            total += seconds
            inside = depth
    return total


# ----------------------------------------------------------------------
# timed passes

class Passes:
    """Timings and outputs of repeated passes over a workload's slots."""

    def __init__(self, slots):
        self.slots = slots
        self.scaled = [[] for _ in slots]
        self.raw = [[] for _ in slots]
        self.first = {}
        self.mismatches = []
        self.count = 0

    @property
    def points_per_pass(self) -> int:
        return sum(slot.points for slot in self.slots)

    def steady_seconds(self, times) -> float:
        """A pass's steady-state time: per slot, the median over every pass
        but the first, summed over slots."""
        return sum(statistics.median(t[1:]) for t in times)

    def points_per_s(self, times=None) -> float:
        return self.points_per_pass / self.steady_seconds(times or self.scaled)

    def first_pass_excess(self) -> float:
        """One-time work of the first pass: per slot, how far its first
        repetition ran over the slowest later one, summed over slots.  Taking
        the slowest rather than the median keeps host noise out of it."""
        return sum(max(0.0, t[0] - max(t[1:])) for t in self.scaled)


def run_passes(cli, error_type, slots, seconds: float, reference: str) -> Passes:
    passes = Passes(slots)
    clock = ReferenceClock(reference)
    deadline = time.perf_counter() + seconds
    while passes.count < MIN_PASSES or time.perf_counter() < deadline:
        for si, slot in enumerate(slots):
            outputs = []
            start = time.perf_counter()
            for op in slot.ops:
                try:
                    outputs.append(run_op(cli, op))
                except error_type as exc:
                    outputs.append(Raised(exc))
            raw = time.perf_counter() - start
            passes.scaled[si].append(clock.scale(raw))
            passes.raw[si].append(raw)
            for oi, output in enumerate(outputs):
                if passes.count == 0:
                    passes.first[si, oi] = output
                    continue
                try:
                    check_identical(passes.first[si, oi], output, f"pass {passes.count} {slot.name}[{oi}]")
                except Mismatch as exc:
                    passes.mismatches.append(str(exc))
        passes.count += 1
    return passes


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "storedlight" / "cli.py").is_file():
        print(f"error: no storedlight source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    imports = import_times() if args.trace else None

    sys.path.insert(0, str(ROOT / "src"))
    import storedlight.cli as cli
    from storedlight.errors import SimulationError
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported storedlight from {cli.__file__}, not this checkout", file=sys.stderr)
        return 2

    slots, reference = build(args.workload, args.seed), REFERENCE[args.workload]
    problems, metrics = [], {}
    gc.collect()
    if not args.trace:
        passes = run_passes(cli, SimulationError, slots, args.seconds, reference)
        metrics["setup_s"] = (statistics.median(setup) + passes.first_pass_excess(), "s")
        metrics["points_per_s"] = (passes.points_per_s(), "1/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        info = {"setup_samples": setup, "first_pass_excess": passes.first_pass_excess(),
                "raw_points_per_s": passes.points_per_s(passes.raw)}
    else:
        start = time.perf_counter()
        serial = cli.run_figure(1).to_csv_text()
        middle = time.perf_counter()
        pooled = cli.run_figure(1, workers=2).to_csv_text()
        pool_speedup = (middle - start) / (time.perf_counter() - middle)
        if pooled != serial:
            problems.append("figure 1 with --workers 2 differs from the serial CSV")
        untraced = run_passes(cli, SimulationError, slots, args.seconds / 2, reference)
        tracer = Tracer()
        tracer.install(cli)
        try:
            passes = run_passes(cli, SimulationError, slots, args.seconds / 2, reference)
        finally:
            tracer.remove()
        problems += [f"traced {key} differs from untraced" for key in passes.first
                     if passes.first[key] != untraced.first[key]]
        layers = tracer.metrics(passes.count)
        layers["storedlight.import_s"], layers["storedlight.import_scipy_s"] = imports
        layers["cli.pool_speedup"] = pool_speedup
        layers["trace.overhead"] = untraced.points_per_s() / passes.points_per_s() - 1.0
        info = {"by_name": tracer.by_name(passes.count), "traced_passes": passes.count}

    check_start = time.perf_counter()
    verdict = verify(args.workload, cli, slots, passes.first, args.seed)
    check_s = time.perf_counter() - check_start
    if args.trace:
        layers["check.s"], layers["check.points"] = check_s, verdict.checked_points
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: (layers[name], units[name]) for name, _, _ in PER_LAYER}
    problems += verdict.problems + passes.mismatches + (untraced.mismatches if args.trace else [])
    failed_per_pass = sum(slots[si].ops[oi].points for si, oi in verdict.failed)

    result = {
        "correct": not problems,
        "attempted": passes.count * passes.points_per_pass,
        "failed": passes.count * failed_per_pass,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info.update(workload=args.workload, seed=args.seed, reference=reference, passes=passes.count,
                check_s=check_s, failed_ops=sorted(f"{slots[si].name}[{oi}]" for si, oi in verdict.failed),
                problems=problems)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump({"result": result, "details": info}, handle, indent=1)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
