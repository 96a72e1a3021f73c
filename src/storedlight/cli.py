"""Command-line front end: canned figures, grid sweeps, one-shot evaluations.

Every command writes CSV with a header row, comma separation, UTF-8 text and
12 significant digits, in deterministic row-major axis order, so repeated runs
are byte-identical.  Numeric parameters accept a small expression grammar with
numbers, ``pi``, the four arithmetic operators and parentheses, e.g. ``pi/8``
or ``3*pi/8``.

Subcommands:
    figure --id N --out PATH        regenerate one of the canned datasets 1-5
    sweep  --config FILE [--set k=v ...]   grid sweep from a JSON description
    eval   --kind KIND [--set k=v ...]     a single point, default to stdout

Exit status is 0 on success, 2 for configuration problems and 1 for runtime
failures, with a one-line ``error: <type>: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import re
import sys
from dataclasses import astuple, dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ExperimentConfigError, InternalConsistencyError, SimulationError
from .fock_interference import (MAX_TOTAL_PHOTONS, FockInput, release_distribution,
                                release_distribution_unit_overlap, release_probabilities)
from .gaussian_states import (SqueezedInput, quadrature_moments, released_quadratures,
                              uncertainty_product)
from .homodyne import (PROBE_CLASSICAL, PROBE_QUANTUM, HomodyneConfig, count_difference_variance,
                       general_variance)
from .mode_transform import (OVERLAP_ROUNDING_TOL, UNITARITY_TOL, GramMatrix, StageAngles,
                             build_transfer_matrix, magnetic_phase_entries, magnetic_phase_matrix,
                             transfer_entries, unitarity_defects)

SIGNIFICANT_DIGITS = 12


# ----------------------------------------------------------------------
# numeric expression grammar

_NUMERAL = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
# bare integers, which Python refuses with leading zeros or beyond 4,300 digits
_INTEGER = re.compile(r"(?<![\w.])(?<![eE][+-])\d+(?![\w.])")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}
_SIGN = {ast.UAdd: 1.0, ast.USub: -1.0}


def parse_number_expression(text: str) -> float:
    """Evaluate an expression built from numbers, pi, + - * / and parentheses.

    Any whitespace may separate tokens and digits may be any Unicode decimal
    digits.  Python parses the expression and only the nodes of this grammar
    are evaluated, so Python-only forms such as 0x10, 1_0, 1j or 2**3 are
    rejected.
    """
    if not isinstance(text, str):
        raise ExperimentConfigError(f"expected an expression string, got {text!r}")
    source = text if text.isascii() else "".join(str(int(c)) if c.isdecimal() else c for c in text)
    source = " ".join(source.split())
    if _NUMERAL.fullmatch(source):
        return float(source)
    try:
        # '#' would open a Python comment; no other character of the grammar is outside ASCII
        if "#" in source or not source.isascii():
            raise ExperimentConfigError("unexpected character")
        try:
            tree = compile(source, "<expression>", "eval", ast.PyCF_ONLY_AST)
        except SyntaxError:
            source = _INTEGER.sub(lambda integer: integer[0] + ".", source)
            tree = compile(source, "<expression>", "eval", ast.PyCF_ONLY_AST)
        return _evaluate(tree.body, source)
    except SyntaxError as exc:
        raise ExperimentConfigError(f"bad expression {text!r}: {exc.msg}") from None
    except (ExperimentConfigError, RecursionError) as exc:
        raise ExperimentConfigError(f"bad expression {text!r}: {exc}") from None


def _evaluate(node, source: str) -> float:
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        left, right = _evaluate(node.left, source), _evaluate(node.right, source)
        if isinstance(node.op, ast.Div) and right == 0.0:
            raise ExperimentConfigError("division by zero")
        return _BINARY[type(node.op)](left, right)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SIGN:
        return _SIGN[type(node.op)] * _evaluate(node.operand, source)
    literal = source[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Name) and literal == "pi":
        return math.pi
    if isinstance(node, ast.Constant) and _NUMERAL.fullmatch(literal):
        return float(literal)
    raise ExperimentConfigError(f"unexpected {literal!r}")


# ----------------------------------------------------------------------
# experiment descriptions

_REQUIRED = object()

_ANGLE_KEYS = ("phi0", "chi20", "chi30", "phi1", "chi21", "chi31")


@dataclass
class SweepAxis:
    name: str
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        if self.count < 1:
            raise ExperimentConfigError(f"axis {self.name!r} needs count >= 1, got {self.count}")
        if not math.isfinite(self.stop - self.start):
            raise ExperimentConfigError(f"axis {self.name!r} from {self.start!r} to {self.stop!r} is not finite")
        return np.linspace(self.start, self.stop, self.count)


@dataclass
class ExperimentConfig:
    """A validated experiment: kind, resolved parameters, optional sweep axes."""

    kind: str
    params: dict
    sweep: list[SweepAxis] = field(default_factory=list)
    out: Optional[str] = None
    provided: set = field(default_factory=set)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        if not isinstance(mapping, dict):
            raise ExperimentConfigError("configuration must be a mapping")
        unknown = set(mapping) - {"kind", "params", "sweep", "out"}
        if unknown:
            raise ExperimentConfigError(f"unknown configuration keys {sorted(unknown)}")
        kind = mapping.get("kind")
        if kind not in _KINDS:
            raise ExperimentConfigError(
                f"kind must be one of {sorted(_KINDS)}, got {kind!r}"
            )
        schema = _KINDS[kind].schema
        raw_params = mapping.get("params", {})
        if not isinstance(raw_params, dict):
            raise ExperimentConfigError("params must be a mapping")
        params = {}
        provided = set()
        for key, value in raw_params.items():
            if key not in schema:
                raise ExperimentConfigError(
                    f"parameter {key!r} is not valid for kind {kind!r}; "
                    f"allowed: {sorted(schema)}"
                )
            params[key] = _coerce(schema[key][0], key, value)
            provided.add(key)
        sweep = []
        raw_sweep = mapping.get("sweep", {})
        if not isinstance(raw_sweep, dict):
            raise ExperimentConfigError("sweep must be a mapping of axis descriptions")
        for name, axis in raw_sweep.items():
            if name not in schema or schema[name][0] != "float":
                raise ExperimentConfigError(
                    f"cannot sweep {name!r} for kind {kind!r}; numeric parameters only"
                )
            if not isinstance(axis, dict) or set(axis) - {"start", "stop", "count"}:
                raise ExperimentConfigError(
                    f"axis {name!r} must give exactly start, stop and count"
                )
            try:
                sweep.append(SweepAxis(
                    name=name,
                    start=_coerce("float", f"{name}.start", axis["start"]),
                    stop=_coerce("float", f"{name}.stop", axis["stop"]),
                    count=_coerce("int", f"{name}.count", axis["count"]),
                ))
            except KeyError as missing:
                raise ExperimentConfigError(f"axis {name!r} is missing {missing}") from None
            provided.add(name)
        out = mapping.get("out")
        if out is not None and not isinstance(out, str):
            raise ExperimentConfigError("out must be a path string")
        config = cls(kind=kind, params=params, sweep=sweep, out=out, provided=provided)
        config._fill_defaults()
        return config

    def _fill_defaults(self):
        schema = _KINDS[self.kind].schema
        for name, (_, default) in schema.items():
            if name not in self.params and default not in (None, _REQUIRED):
                self.params[name] = default
        swept = {axis.name for axis in self.sweep}
        missing = [name for name, (_, default) in schema.items()
                   if default is _REQUIRED and name not in self.params and name not in swept]
        if missing:
            raise ExperimentConfigError(
                f"kind {self.kind!r} requires parameters {sorted(missing)}"
            )
        if "delta" in self.provided and any(key in self.provided for key in _ANGLE_KEYS):
            raise ExperimentConfigError(
                "give either delta or explicit stage angles, not both"
            )
        if self.kind == "fock-distribution" and "i" not in self.params:
            self.params["i"] = self.params["n"]
        if self.kind == "homodyne" and self.params["probe"] not in (PROBE_QUANTUM, PROBE_CLASSICAL):
            raise ExperimentConfigError(
                f"probe must be {PROBE_QUANTUM!r} or {PROBE_CLASSICAL!r}, "
                f"got {self.params['probe']!r}"
            )


def _coerce(type_name: str, key: str, value):
    if type_name == "float":
        if isinstance(value, bool):
            raise ExperimentConfigError(f"{key} must be a number, got {value!r}")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            return parse_number_expression(value)
    elif type_name == "int":
        if isinstance(value, bool):
            raise ExperimentConfigError(f"{key} must be an integer, got {value!r}")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        # int() would read 1_0 as 10
        if isinstance(value, str) and "_" not in value:
            try:
                return int(value, 10)
            except ValueError:
                pass
    elif type_name == "str":
        if isinstance(value, str):
            return value
    raise ExperimentConfigError(f"{key} must be of type {type_name}, got {value!r}")


def apply_overrides(mapping: dict, assignments: list[str]) -> dict:
    """Apply ``--set path=value`` pairs onto a raw configuration mapping.

    Paths address kind, out, params.NAME, sweep.NAME.start/stop/count; a bare
    NAME is shorthand for params.NAME.
    """
    for assignment in assignments:
        if "=" not in assignment:
            raise ExperimentConfigError(f"override {assignment!r} is not of the form key=value")
        path, value = assignment.split("=", 1)
        parts = path.strip().split(".")
        if parts == ["kind"] or parts == ["out"]:
            mapping[parts[0]] = value
        elif parts[0] == "params" and len(parts) == 2:
            mapping.setdefault("params", {})[parts[1]] = value
        elif parts[0] == "sweep" and len(parts) == 3:
            axes = mapping.setdefault("sweep", {})
            axes.setdefault(parts[1], {})[parts[2]] = value
        elif len(parts) == 1 and parts[0]:
            mapping.setdefault("params", {})[parts[0]] = value
        else:
            raise ExperimentConfigError(f"override path {path!r} is not recognized")
    return mapping


# ----------------------------------------------------------------------
# kinds: a grid kernel and a single-point route per quantity

def _transfer_from_params(params: dict):
    if params.get("delta") is not None:
        return magnetic_phase_matrix(params["delta"])
    angles = [params[key] for key in _ANGLE_KEYS]
    return build_transfer_matrix(StageAngles(*angles[:3]), StageAngles(*angles[3:]))


def _fock_distribution(params: dict):
    transfer = _transfer_from_params(params)
    overlap = GramMatrix(params["s"])
    fock_input = FockInput(params["n"], params["m"], overlap)
    # release_distribution would dispatch on the overlap by itself; a single
    # point calls the unit-overlap form by name so that per-layer spans wrapped
    # around the names this module binds still see it (sweeps bypass both
    # names through release_probabilities)
    if overlap.is_unit_overlap():
        return release_distribution_unit_overlap(fock_input, transfer)
    return release_distribution(fock_input, transfer)


def _count_kernel(grid: dict, entries: np.ndarray):
    n, m, target = grid["n"], grid["m"], grid["i"]
    # the FockInput checks and the count range hold at every point or at none
    if not (min(n, m) >= 0 and 0 <= target <= n + m <= MAX_TOTAL_PHOTONS):
        return [np.nan], False
    overlap = np.abs(grid["s"])
    probs, passed = release_probabilities(n, m, entries, overlap)
    return [np.clip(probs[:, target], 0.0, 1.0)], passed & (overlap <= 1.0 + OVERLAP_ROUNDING_TOL)


def _count_point(params: dict) -> tuple:
    distribution = _fock_distribution(params)
    target = params["i"]
    if not 0 <= target < len(distribution):
        raise ExperimentConfigError(f"count i={target} outside 0..{len(distribution) - 1}")
    return (distribution[target],)


def _quadrature_kernel(grid: dict, entries: np.ndarray):
    return quadrature_moments(entries[:2], grid["r1"], grid["r2"],
                              (grid["alpha1_re"], grid["alpha1_im"]),
                              (grid["alpha2_re"], grid["alpha2_im"]))


def _uncertainty_kernel(grid: dict, entries: np.ndarray):
    (_, _, var_q, var_p), passed = _quadrature_kernel(grid, entries)
    return (var_q, var_p, var_q * var_p), passed


def _released(params: dict):
    transfer = _transfer_from_params(params)
    inputs = SqueezedInput(complex(params["alpha1_re"], params["alpha1_im"]),
                           complex(params["alpha2_re"], params["alpha2_im"]), params["r1"], params["r2"])
    return released_quadratures(inputs, transfer)


def _uncertainty_point(params: dict) -> tuple:
    stats = _released(params)
    return stats.var_q, stats.var_p, uncertainty_product(stats)


def _homodyne_kernel(grid: dict, entries: np.ndarray):
    variance, passed = count_difference_variance(grid["r1"], grid["alpha2_mod"], grid["gamma"],
                                                 grid["phi0"], grid["phi1"], 0.0, grid["probe"])
    return [variance], passed


def _homodyne_point(params: dict) -> tuple:
    config = HomodyneConfig(params["r1"], params["alpha2_mod"], params["gamma"],
                            StageAngles(params["phi0"], 0.0, 0.0), StageAngles(params["phi1"], 0.0, 0.0),
                            params["probe"])
    return (general_variance(config),)


class _Kind(NamedTuple):
    # parameter name -> (type, default); type is "float" (expression-capable), "int" or "str"
    schema: dict
    columns: tuple
    # (parameters, each a number or a (P,) array; (4, P) transfer entries)
    # -> (value columns, each a number or a (P,) array; (P,) mask of passing points)
    kernel: Callable
    # parameters -> values at one point through the public scalar functions,
    # raising that point's own error
    point: Callable


_STAGE_ANGLES = {key: ("float", 0.0) for key in _ANGLE_KEYS}
_SQUEEZED_INPUTS = {
    "r1": ("float", 0.0),
    "r2": ("float", 0.0),
    "alpha1_re": ("float", 0.0),
    "alpha1_im": ("float", 0.0),
    "alpha2_re": ("float", 0.0),
    "alpha2_im": ("float", 0.0),
    "delta": ("float", None),
    **_STAGE_ANGLES,
}

_KINDS = {
    "fock-distribution": _Kind({
        "n": ("int", _REQUIRED),
        "m": ("int", _REQUIRED),
        "i": ("int", None),
        "s": ("float", 1.0),
        "delta": ("float", None),
        **_STAGE_ANGLES,
    }, ("probability",), _count_kernel, _count_point),
    "quadratures": _Kind(_SQUEEZED_INPUTS, ("mean_q", "mean_p", "var_q", "var_p"),
                         _quadrature_kernel, lambda params: astuple(_released(params))),
    "uncertainty-product": _Kind(_SQUEEZED_INPUTS, ("var_q", "var_p", "product"),
                                 _uncertainty_kernel, _uncertainty_point),
    "homodyne": _Kind({
        "r1": ("float", 0.0),
        "alpha2_mod": ("float", _REQUIRED),
        "gamma": ("float", 0.0),
        "phi0": ("float", 0.0),
        "phi1": ("float", 0.0),
        "probe": ("str", PROBE_QUANTUM),
    }, ("var_k",), _homodyne_kernel, _homodyne_point),
}


# ----------------------------------------------------------------------
# the sweep driver

@dataclass
class Dataset:
    """A finished run as one (rows, columns) float array, ready for CSV."""

    columns: tuple
    values: np.ndarray

    @property
    def rows(self) -> list:
        return list(map(tuple, self.values.tolist()))

    def to_csv_text(self) -> str:
        template = ",".join([f"%.{SIGNIFICANT_DIGITS}g"] * len(self.columns)) + "\n"
        return ",".join(self.columns) + "\n" + template * len(self.values) % tuple(self.values.ravel().tolist())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_csv_text())

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


def run_experiment(config: ExperimentConfig, workers: int = 1) -> Dataset:
    """Evaluate the configured quantity over its sweep grid in one array pass
    through the kind's kernel.

    Rows are emitted in row-major order of the sweep axes as declared.  At the
    first point, in that order, that fails a check, the single-point route
    runs again and raises its error with ``at <axis>=<value>, ...`` appended:
    the error that point raises on its own.  ``workers`` is accepted for
    compatibility and has no effect: evaluation is serial, and the output the
    same either way.
    """
    kind = _KINDS[config.kind]
    names = [axis.name for axis in config.sweep]
    axes = [coords.ravel() for coords in np.meshgrid(*(axis.values() for axis in config.sweep), indexing="ij")]
    size = axes[0].size if axes else 1
    grid = {**config.params, **dict(zip(names, axes))}
    entries = np.broadcast_to(
        magnetic_phase_entries(grid["delta"]) if grid.get("delta") is not None
        else transfer_entries(*(grid.get(key, 0.0) for key in _ANGLE_KEYS)), (4, size))
    with np.errstate(all="ignore"):
        columns, passed = kind.kernel(grid, entries)
    values = np.empty((size, len(names) + len(kind.columns)))
    for k, column in enumerate([*axes, *columns]):
        values[:, k] = column
    passed = (passed & (unitarity_defects(entries) <= UNITARITY_TOL)
              & np.isfinite(values[:, len(names):]).all(axis=1))
    if not passed.all():
        row = int(np.argmin(passed))
        point = {**config.params, **{name: float(axis[row]) for name, axis in zip(names, axes)}}
        where = ", ".join(f"{name}={point[name]!r}" for name in names)
        try:
            kind.point(point)
        except SimulationError as exc:
            exc.args = (f"{exc} at {where}",) if where else exc.args
            raise
        raise InternalConsistencyError(f"sweep and single-point routes disagree at {where}")
    return Dataset(columns=tuple(names) + kind.columns, values=values)


def run_single(config: ExperimentConfig) -> Dataset:
    """One-shot evaluation through the single-point route.  For the count
    distribution without an explicit target the full distribution is
    returned, one row per count."""
    if config.sweep:
        raise ExperimentConfigError("run_single does not accept sweep axes")
    if config.kind == "fock-distribution" and "i" not in config.provided:
        probabilities = _fock_distribution(config.params).probabilities
        return Dataset(("i", "probability"), np.column_stack((np.arange(probabilities.size), probabilities)))
    kind = _KINDS[config.kind]
    return Dataset(columns=kind.columns, values=np.array([kind.point(config.params)], dtype=float))


# ----------------------------------------------------------------------
# canned figures

_GRID_ANGLE = {"start": 0.0, "stop": "pi/2", "count": 65}
_GRID_PHASE = {"start": 0.0, "stop": "2*pi", "count": 65}

_FIGURES: dict[int, tuple[dict, tuple]] = {
    1: ({
        "kind": "fock-distribution",
        "params": {"n": 6, "m": 6, "i": 6, "s": 1.0, "phi0": "pi/8"},
        "sweep": {"phi1": _GRID_ANGLE, "chi21": _GRID_PHASE},
    }, ("probability",)),
    2: ({
        "kind": "quadratures",
        "params": {"r1": 1.0, "r2": 0.5, "phi0": "pi/4"},
        "sweep": {"phi1": _GRID_ANGLE, "chi21": _GRID_PHASE},
    }, ("var_q",)),
    3: ({
        "kind": "quadratures",
        "params": {"r1": 1.0, "r2": 0.5, "phi0": "pi/4"},
        "sweep": {"phi1": _GRID_ANGLE, "chi21": _GRID_PHASE},
    }, ("var_p",)),
    4: ({
        "kind": "uncertainty-product",
        "params": {"r1": 1.0, "r2": 0.5, "phi0": "pi/4"},
        "sweep": {"phi1": _GRID_ANGLE, "chi21": _GRID_PHASE},
    }, ("product",)),
    5: ({
        "kind": "homodyne",
        "params": {"r1": 1.0, "alpha2_mod": 20.0, "phi0": "pi/8", "probe": PROBE_QUANTUM},
        "sweep": {"phi1": _GRID_ANGLE, "gamma": _GRID_PHASE},
    }, ("var_k",)),
}


def run_figure(figure_id: int, workers: int = 1) -> Dataset:
    """Regenerate one of the canned datasets on its 64x64-cell grid."""
    if figure_id not in _FIGURES:
        raise ExperimentConfigError(f"figure id must be one of {sorted(_FIGURES)}, got {figure_id}")
    mapping, keep = _FIGURES[figure_id]
    config = ExperimentConfig.from_mapping(json.loads(json.dumps(mapping)))
    dataset = run_experiment(config, workers=workers)
    wanted = tuple(axis.name for axis in config.sweep) + keep
    return Dataset(wanted, dataset.values[:, [dataset.columns.index(name) for name in wanted]])


# ----------------------------------------------------------------------
# argument handling

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ExperimentConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="storedlight", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure", help="regenerate a canned dataset")
    figure.add_argument("--id", type=int, required=True, help="figure number, 1-5")
    figure.add_argument("--out", required=True, help="output CSV path")
    figure.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility, no effect: evaluation is serial")

    sweep = sub.add_parser("sweep", help="grid sweep from a JSON description")
    sweep.add_argument("--config", required=True, help="JSON experiment description")
    sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a configuration entry; repeatable")
    sweep.add_argument("--out", default=None, help="output CSV path (overrides the file)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="accepted for compatibility, no effect: evaluation is serial")

    single = sub.add_parser("eval", help="evaluate a single parameter point")
    single.add_argument("--kind", required=True, help=f"one of {sorted(_KINDS)}")
    single.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="parameter assignment; repeatable")
    single.add_argument("--out", default=None, help="output CSV path (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "figure":
            dataset = run_figure(args.id, workers=args.workers)
            dataset.write(args.out)
        elif args.command == "sweep":
            try:
                with open(args.config, encoding="utf-8") as handle:
                    mapping = json.load(handle)
            except OSError as exc:
                raise ExperimentConfigError(f"cannot read config: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ExperimentConfigError(f"config is not valid JSON: {exc}") from None
            mapping = apply_overrides(mapping, args.set)
            config = ExperimentConfig.from_mapping(mapping)
            out = args.out or config.out
            if out is None:
                raise ExperimentConfigError("no output path: give out in the config or --out")
            dataset = run_experiment(config, workers=args.workers)
            dataset.write(out)
        else:
            mapping = apply_overrides({"kind": args.kind}, args.set)
            config = ExperimentConfig.from_mapping(mapping)
            dataset = run_single(config)
            if args.out is None:
                sys.stdout.write(dataset.to_csv_text())
            else:
                dataset.write(args.out)
    except ExperimentConfigError as exc:
        _report_error(exc)
        return 2
    except SimulationError as exc:
        _report_error(exc)
        return 1
    except OSError as exc:
        _report_error(exc)
        return 1
    return 0


def _report_error(exc: Exception) -> None:
    message = " ".join(str(exc).split())
    print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
