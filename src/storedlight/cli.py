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
import itertools
import json
import math
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ExperimentConfigError, SimulationError
from .fock_interference import FockInput, release_distribution, release_distribution_unit_overlap
from .gaussian_states import SqueezedInput, released_quadratures, uncertainty_product
from .homodyne import PROBE_CLASSICAL, PROBE_QUANTUM, HomodyneConfig, general_variance
from .mode_transform import GramMatrix, StageAngles, build_transfer_matrix, magnetic_phase_matrix

SIGNIFICANT_DIGITS = 12


# ----------------------------------------------------------------------
# numeric expression grammar

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                    r"|\d+(?:[eE][+-]?\d+)?)|(pi)|([+\-*/()]))")


def parse_number_expression(text: str) -> float:
    """Evaluate an expression built from numbers, pi, + - * / and parentheses."""
    if not isinstance(text, str):
        raise ExperimentConfigError(f"expected an expression string, got {text!r}")
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ExperimentConfigError(f"bad expression {text!r}: unexpected {text[pos:]!r}")
        number, name, op = match.groups()
        if number is not None:
            tokens.append(("num", float(number)))
        elif name is not None:
            tokens.append(("num", math.pi))
        else:
            tokens.append(("op", op))
        pos = match.end()
    if not tokens:
        raise ExperimentConfigError(f"empty expression {text!r}")
    tokens.append(("end", None))

    index = 0

    def peek():
        return tokens[index]

    def take():
        nonlocal index
        token = tokens[index]
        index += 1
        return token

    def primary() -> float:
        kind, value = take()
        if kind == "num":
            return value
        if kind == "op" and value == "(":
            inner = expr()
            kind, value = take()
            if not (kind == "op" and value == ")"):
                raise ExperimentConfigError(f"bad expression {text!r}: missing ')'")
            return inner
        raise ExperimentConfigError(f"bad expression {text!r}: expected a value")

    def unary() -> float:
        sign = 1.0
        while peek() == ("op", "+") or peek() == ("op", "-"):
            if take()[1] == "-":
                sign = -sign
        return sign * primary()

    def term() -> float:
        value = unary()
        while peek() in (("op", "*"), ("op", "/")):
            op = take()[1]
            rhs = unary()
            if op == "*":
                value *= rhs
            else:
                if rhs == 0.0:
                    raise ExperimentConfigError(f"bad expression {text!r}: division by zero")
                value /= rhs
        return value

    def expr() -> float:
        value = term()
        while peek() in (("op", "+"), ("op", "-")):
            op = take()[1]
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    result = expr()
    if peek() != ("end", None):
        raise ExperimentConfigError(f"bad expression {text!r}: trailing input")
    return result


# ----------------------------------------------------------------------
# experiment descriptions

_REQUIRED = object()

# (type, default); type is "float" (expression-capable), "int" or "str"
_SCHEMAS: dict[str, dict[str, tuple[str, object]]] = {
    "fock-distribution": {
        "n": ("int", _REQUIRED),
        "m": ("int", _REQUIRED),
        "i": ("int", None),
        "s": ("float", 1.0),
        "delta": ("float", None),
        "phi0": ("float", 0.0),
        "chi20": ("float", 0.0),
        "chi30": ("float", 0.0),
        "phi1": ("float", 0.0),
        "chi21": ("float", 0.0),
        "chi31": ("float", 0.0),
    },
    "quadratures": {
        "r1": ("float", 0.0),
        "r2": ("float", 0.0),
        "alpha1_re": ("float", 0.0),
        "alpha1_im": ("float", 0.0),
        "alpha2_re": ("float", 0.0),
        "alpha2_im": ("float", 0.0),
        "delta": ("float", None),
        "phi0": ("float", 0.0),
        "chi20": ("float", 0.0),
        "chi30": ("float", 0.0),
        "phi1": ("float", 0.0),
        "chi21": ("float", 0.0),
        "chi31": ("float", 0.0),
    },
    "homodyne": {
        "r1": ("float", 0.0),
        "alpha2_mod": ("float", _REQUIRED),
        "gamma": ("float", 0.0),
        "phi0": ("float", 0.0),
        "phi1": ("float", 0.0),
        "probe": ("str", PROBE_QUANTUM),
    },
}
_SCHEMAS["uncertainty-product"] = dict(_SCHEMAS["quadratures"])

_VALUE_COLUMNS = {
    "fock-distribution": ("probability",),
    "quadratures": ("mean_q", "mean_p", "var_q", "var_p"),
    "uncertainty-product": ("var_q", "var_p", "product"),
    "homodyne": ("var_k",),
}

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
        if kind not in _SCHEMAS:
            raise ExperimentConfigError(
                f"kind must be one of {sorted(_SCHEMAS)}, got {kind!r}"
            )
        schema = _SCHEMAS[kind]
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
        schema = _SCHEMAS[self.kind]
        for name, (_, default) in schema.items():
            if name not in self.params and default not in (None, _REQUIRED):
                self.params[name] = default
        missing = [name for name, (_, default) in schema.items()
                   if default is _REQUIRED and name not in self.params]
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
        if isinstance(value, str):
            try:
                return int(value, 10)
            except ValueError:
                raise ExperimentConfigError(f"{key} must be an integer, got {value!r}") from None
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
# point evaluation

def _transfer_from_params(params: dict):
    delta = params.get("delta")
    if delta is not None:
        return magnetic_phase_matrix(delta)
    storage = StageAngles(params.get("phi0", 0.0), params.get("chi20", 0.0),
                          params.get("chi30", 0.0))
    release = StageAngles(params.get("phi1", 0.0), params.get("chi21", 0.0),
                          params.get("chi31", 0.0))
    return build_transfer_matrix(storage, release)


def _fock_distribution(params: dict):
    transfer = _transfer_from_params(params)
    overlap = GramMatrix(params["s"])
    fock_input = FockInput(params["n"], params["m"], overlap)
    # release_distribution would dispatch on the overlap by itself; calling the
    # unit-overlap form by name here keeps it visible to the per-layer spans
    # that bench/tracing.py wraps around the names this module binds
    if overlap.is_unit_overlap():
        return release_distribution_unit_overlap(fock_input, transfer)
    return release_distribution(fock_input, transfer)


def _evaluate_point(kind: str, params: dict) -> tuple:
    if kind == "fock-distribution":
        distribution = _fock_distribution(params)
        target = params["i"]
        if not 0 <= target < len(distribution):
            raise ExperimentConfigError(
                f"count i={target} outside 0..{len(distribution) - 1}"
            )
        return (distribution[target],)
    if kind in ("quadratures", "uncertainty-product"):
        transfer = _transfer_from_params(params)
        inputs = SqueezedInput(
            alpha1=complex(params["alpha1_re"], params["alpha1_im"]),
            alpha2=complex(params["alpha2_re"], params["alpha2_im"]),
            r1=params["r1"],
            r2=params["r2"],
        )
        stats = released_quadratures(inputs, transfer)
        if kind == "quadratures":
            return (stats.mean_q, stats.mean_p, stats.var_q, stats.var_p)
        return (stats.var_q, stats.var_p, uncertainty_product(stats))
    if kind == "homodyne":
        config = HomodyneConfig(
            r1=params["r1"],
            alpha2_mod=params["alpha2_mod"],
            gamma=params["gamma"],
            storage=StageAngles(params["phi0"], 0.0, 0.0),
            release=StageAngles(params["phi1"], 0.0, 0.0),
            probe_treatment=params["probe"],
        )
        return (general_variance(config),)
    raise ExperimentConfigError(f"unknown kind {kind!r}")


def _pool_task(task):
    kind, params = task
    return _evaluate_point(kind, params)


@dataclass
class Dataset:
    """Rows of a finished run, ready for CSV serialization."""

    columns: tuple
    rows: list

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_format_value(value) for value in row))
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_csv_text())

    def column(self, name: str) -> np.ndarray:
        return np.array([row[self.columns.index(name)] for row in self.rows])


def _format_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), f".{SIGNIFICANT_DIGITS}g")


def run_experiment(config: ExperimentConfig, workers: int = 1) -> Dataset:
    """Evaluate the configured quantity over its sweep grid.

    Rows are emitted in row-major order of the sweep axes as declared; with a
    worker pool the evaluations may run concurrently but assembly order is
    fixed, so the output is deterministic either way.
    """
    axes = [(axis.name, axis.values()) for axis in config.sweep]
    columns = tuple(name for name, _ in axes) + _VALUE_COLUMNS[config.kind]
    grids = [values for _, values in axes]
    points = []
    for combo in itertools.product(*grids):
        params = dict(config.params)
        for (name, _), value in zip(axes, combo):
            params[name] = float(value)
        points.append((combo, params))

    if workers > 1 and len(points) > 1:
        tasks = [(config.kind, params) for _, params in points]
        chunk = max(1, len(tasks) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(_pool_task, tasks, chunksize=chunk))
    else:
        values = [_evaluate_point(config.kind, params) for _, params in points]

    rows = [tuple(combo) + tuple(result) for (combo, _), result in zip(points, values)]
    return Dataset(columns=columns, rows=rows)


def run_single(config: ExperimentConfig) -> Dataset:
    """One-shot evaluation.  For the count distribution without an explicit
    target the full distribution is returned, one row per count."""
    if config.sweep:
        raise ExperimentConfigError("run_single does not accept sweep axes")
    if config.kind == "fock-distribution" and "i" not in config.provided:
        distribution = _fock_distribution(config.params)
        rows = [(i, distribution[i]) for i in range(len(distribution))]
        return Dataset(columns=("i", "probability"), rows=rows)
    values = _evaluate_point(config.kind, config.params)
    return Dataset(columns=_VALUE_COLUMNS[config.kind], rows=[tuple(values)])


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
    axis_names = tuple(axis.name for axis in config.sweep)
    wanted = axis_names + keep
    index = [dataset.columns.index(name) for name in wanted]
    rows = [tuple(row[i] for i in index) for row in dataset.rows]
    return Dataset(columns=wanted, rows=rows)


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
    figure.add_argument("--workers", type=int, default=1, help="evaluation processes")

    sweep = sub.add_parser("sweep", help="grid sweep from a JSON description")
    sweep.add_argument("--config", required=True, help="JSON experiment description")
    sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a configuration entry; repeatable")
    sweep.add_argument("--out", default=None, help="output CSV path (overrides the file)")
    sweep.add_argument("--workers", type=int, default=1, help="evaluation processes")

    single = sub.add_parser("eval", help="evaluate a single parameter point")
    single.add_argument("--kind", required=True, help=f"one of {sorted(_SCHEMAS)}")
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
