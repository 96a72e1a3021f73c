"""Workload inputs for the storedlight benchmark, and how one operation runs.

A workload is a list of slots.  A slot is a few operations timed together as
one repetition, and a pass runs every slot once, in order.  Every operation
goes through the same public ``storedlight.cli`` functions that the
``storedlight figure|sweep|eval`` subcommands call, and yields the CSV text
that the subcommand would write.  Only continuous inputs (deltas, stage
angles) depend on the seed, so the amount of work in a pass does not.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("count-map", "noise-map", "overlap-scan")

# the reference computation (see timing.py) whose mix of work matches each
# workload's: the closed forms are interpreter-bound, the oracle is not
REFERENCE = {"count-map": "interpreter", "noise-map": "interpreter", "overlap-scan": "linear-algebra"}

TWO_PI = 2.0 * math.pi

# figure 1: P(6) for n = m = 6 over the release angle (rows) and the
# release-stage phase chi21 (columns); a row is one chi21 sweep
FIG1_PHI1 = np.linspace(0.0, math.pi / 2, 65)
FIG1_ROW = {
    "kind": "fock-distribution",
    "params": {"n": 6, "m": 6, "i": 6, "s": 1.0, "phi0": "pi/8"},
    "sweep": {"chi21": {"start": 0, "stop": "2*pi", "count": 65}},
}
FIG1_ROWS_PER_SLOT = 5

# photon-number ladder of full distributions at seeded settings; every pair
# stays far inside the double-precision tolerance of the checks at any angle
LADDER_PAIRS = ((1, 1), (2, 0), (0, 3), (3, 2), (4, 4), (6, 6), (8, 3), (10, 10),
                (12, 12), (16, 4), (24, 0), (40, 2), (60, 4), (63, 1), (0, 64), (64, 0))
# n = m at a balanced split (delta = pi/2, 3*pi/2): odd counts vanish
BALANCED = ((4, 4, math.pi / 2), (10, 10, 1.5 * math.pi), (12, 12, math.pi / 2))

# the unit-overlap closed form loses precision from about n = m = 24; these
# fixed, seed-independent points are where it fails, counted as failed
FAULT_PAIRS = ((24, 24), (28, 28), (32, 32), (40, 24))
FAULT_DELTAS = np.linspace(0.0, TWO_PI, 33)

# partial overlap through the Fock oracle: more distinct overlaps than the
# CLI's 8-entry basis cache holds, so every pass rebuilds every basis
OVERLAPS = np.linspace(0.0, 1.0, 11)
OVERLAP_PAIRS = ((4, 4, 4), (6, 2, 3))
OVERLAP_DELTAS = 6


class Raised(tuple):
    """Output of an operation that raised: (exception type, message)."""

    def __new__(cls, exc: BaseException):
        return super().__new__(cls, (type(exc).__name__, " ".join(str(exc).split())))

    def __str__(self) -> str:
        return f"{self[0]}: {self[1]}"


@dataclass(frozen=True)
class Op:
    """One storedlight command: ``figure`` (by id), ``sweep`` (a description
    plus --set overrides) or ``eval`` (--set assignments only)."""

    command: str
    sets: tuple = ()
    mapping: dict = None
    figure: int = 0
    points: int = 1
    check: str = ""
    # what the checks need to recompute the answer independently
    n: int = 0
    m: int = 0
    i: int = 0
    s: float = 1.0
    transfer: tuple = ()
    axis: tuple = ()
    fault_prone: bool = False


@dataclass
class Slot:
    name: str
    ops: list = field(default_factory=list)

    @property
    def points(self) -> int:
        return sum(op.points for op in self.ops)


def _num(value: float) -> str:
    """A float as the command line takes it, round-tripping exactly."""
    return repr(float(value))


def _transfer_sets(spec) -> tuple:
    kind, values = spec
    if kind == "delta":
        return (f"delta={_num(values)}",)
    names = ("phi0", "chi20", "chi30", "phi1", "chi21", "chi31")
    return tuple(f"{name}={_num(v)}" for name, v in zip(names, values))


def _ladder_op(n: int, m: int, spec, fault_prone: bool = False) -> Op:
    return Op("eval", sets=("kind=fock-distribution", f"n={n}", f"m={m}") + _transfer_sets(spec),
              check="ladder", n=n, m=m, transfer=spec, fault_prone=fault_prone)


def _random_angles(rng) -> tuple:
    phi0, phi1 = rng.uniform(0.0, math.pi, 2)
    chi20, chi30, chi21, chi31 = rng.uniform(0.0, TWO_PI, 4)
    return ("angles", tuple(float(v) for v in (phi0, chi20, chi30, phi1, chi21, chi31)))


def count_map(rng) -> list[Slot]:
    slots = []
    for first in range(0, len(FIG1_PHI1), FIG1_ROWS_PER_SLOT):
        rows = range(first, min(first + FIG1_ROWS_PER_SLOT, len(FIG1_PHI1)))
        slots.append(Slot(f"fig1-rows-{first}", [
            Op("sweep", sets=(f"phi1={_num(FIG1_PHI1[k])}",), mapping=FIG1_ROW, points=65,
               check="fig1-row", i=k)
            for k in rows]))
    ladder = Slot("ladder")
    for n, m in LADDER_PAIRS:
        for delta in rng.uniform(0.0, TWO_PI, 2):
            ladder.ops.append(_ladder_op(n, m, ("delta", float(delta))))
        ladder.ops.append(_ladder_op(n, m, _random_angles(rng)))
    for n, m, delta in BALANCED:
        ladder.ops.append(_ladder_op(n, m, ("delta", delta)))
    slots.append(ladder)
    for n, m in FAULT_PAIRS:
        slots.append(Slot(f"fault-{n}-{m}", [
            _ladder_op(n, m, ("delta", float(delta)), fault_prone=True) for delta in FAULT_DELTAS]))
    return slots


def noise_map(rng) -> list[Slot]:
    # the canned figures have fixed inputs; the seed picks the checked sample
    return [Slot(f"figure-{fid}", [Op("figure", figure=fid, points=65 * 65, check="figure")])
            for fid in (2, 3, 4, 5)]


def overlap_scan(rng) -> list[Slot]:
    start = float(rng.uniform(0.0, TWO_PI / OVERLAP_DELTAS))
    stop = start + TWO_PI * (OVERLAP_DELTAS - 1) / OVERLAP_DELTAS
    axis = tuple(float(v) for v in np.linspace(start, stop, OVERLAP_DELTAS))
    slots = []
    for s in OVERLAPS:
        for n, m, i in OVERLAP_PAIRS:
            mapping = {
                "kind": "fock-distribution",
                "params": {"n": n, "m": m, "i": i, "s": float(s)},
                "sweep": {"delta": {"start": 0, "stop": 1, "count": OVERLAP_DELTAS}},
            }
            slots.append(Slot(f"overlap-{s:.1f}-{n}-{m}", [Op(
                "sweep", mapping=mapping,
                sets=(f"sweep.delta.start={_num(start)}", f"sweep.delta.stop={_num(stop)}"),
                points=OVERLAP_DELTAS, check="overlap", n=n, m=m, i=i, s=float(s), axis=axis)]))
    return slots


_BUILDERS = {"count-map": count_map, "noise-map": noise_map, "overlap-scan": overlap_scan}


def build(workload: str, seed: int) -> list[Slot]:
    """The slots of one workload; the same seed gives the same inputs."""
    return _BUILDERS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))


def run_op(cli, op: Op) -> str:
    """Run one operation the way ``storedlight.cli.main`` does, minus argument
    parsing and the file write, and return the CSV text."""
    if op.command == "figure":
        return cli.run_figure(op.figure).to_csv_text()
    mapping = copy.deepcopy(op.mapping) if op.mapping else {}
    config = cli.ExperimentConfig.from_mapping(cli.apply_overrides(mapping, list(op.sets)))
    if op.command == "sweep":
        return cli.run_experiment(config).to_csv_text()
    return cli.run_single(config).to_csv_text()
