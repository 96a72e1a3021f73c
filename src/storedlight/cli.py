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
failures, with a one-line ``error: <type>: <message>`` on stderr.  A config
file that cannot be decoded as UTF-8 JSON, an override into a part of the
configuration that is not a mapping, an axis count numpy cannot size and a
grid whose array of axis and value columns numpy cannot size are
configuration problems; running out of memory is a runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import astuple, dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ExperimentConfigError, InternalConsistencyError, SimulationError
from .fock_interference import MAX_TOTAL_PHOTONS, FockInput, release_distribution, release_probabilities
from .gaussian_states import (SqueezedInput, quadrature_moments, released_quadratures,
                              uncertainty_product)
from .homodyne import (PROBE_CLASSICAL, PROBE_QUANTUM, HomodyneConfig, count_difference_variance,
                       general_variance)
from .mode_transform import (UNITARITY_TOL, GramMatrix, StageAngles,
                             build_transfer_matrix, magnetic_phase_entries, magnetic_phase_matrix,
                             transfer_entries, unitarity_defects)

SIGNIFICANT_DIGITS = 12

# the CSV rows of counts 0..MAX_TOTAL_PHOTONS, each as "%.12g" prints it
_COUNT_ROWS = tuple(f"{count},%.{SIGNIFICANT_DIGITS}g\n" for count in range(MAX_TOTAL_PHOTONS + 1))

# the name bench/tracing.py wraps to time single-point counts
release_distribution_unit_overlap = release_distribution


# ----------------------------------------------------------------------
# numeric expression grammar

_NUMERAL = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
# one token after an optional space: a numeral, pi, or any other single character
_TOKEN = re.compile(rf" ?({_NUMERAL.pattern}|pi|.)", re.ASCII)


def parse_number_expression(text: str) -> float:
    """Evaluate an expression built from numbers, pi, + - * / and parentheses.

    Any whitespace may separate tokens and digits may be any Unicode decimal
    digits.  Signs bind to the number, pi or parenthesis they precede, * and /
    bind tighter than + and -, and each evaluates left to right; a numeral is
    decimal digits with an optional point and exponent, so Python-only forms
    such as 0x10, 1_0, 1j or 2**3 are rejected.  Parentheses nest as deep as
    the recursion limit allows.
    """
    if not isinstance(text, str):
        raise ExperimentConfigError(f"expected an expression string, got {text!r}")
    source = text if text.isascii() else "".join(str(int(c)) if c.isdecimal() else c for c in text)
    source = " ".join(source.split())
    if _NUMERAL.fullmatch(source):
        return float(source)
    try:
        # "" marks the end
        tokens = _TOKEN.findall(source) + [""]
        value, end = _sum(tokens, 0)
        if tokens[end]:
            raise _unexpected(tokens[end])
        return value
    except (ExperimentConfigError, RecursionError) as exc:
        raise ExperimentConfigError(f"bad expression {text!r}: {exc}") from None


def _sum(tokens: list, at: int) -> tuple:
    """The value of the sum that starts at tokens[at], and the index of the
    token after it.  Only a parenthesis recurses."""
    total = term = None
    add = multiply = ""
    while True:
        sign = 1.0
        while tokens[at] in ("+", "-"):
            sign, at = -sign if tokens[at] == "-" else sign, at + 1
        token = tokens[at]
        if token == "(":
            value, at = _sum(tokens, at + 1)
            if tokens[at] != ")":
                raise _unexpected(tokens[at])
        elif token == "pi":
            value = math.pi
        elif _NUMERAL.fullmatch(token):
            value = float(token)
        else:
            raise _unexpected(token)
        value, at = sign * value, at + 1
        if multiply == "/" and value == 0.0:
            raise ExperimentConfigError("division by zero")
        term = term * value if multiply == "*" else term / value if multiply else value
        if tokens[at] in ("*", "/"):
            multiply, at = tokens[at], at + 1
            continue
        total = total + term if add == "+" else total - term if add else term
        if tokens[at] not in ("+", "-"):
            return total, at
        add, multiply, at = tokens[at], "", at + 1


def _unexpected(token: str) -> ExperimentConfigError:
    return ExperimentConfigError(f"unexpected {token!r}" if token else "unexpected end")


# ----------------------------------------------------------------------
# experiment descriptions

_REQUIRED = object()

_ANGLE_KEYS = ("phi0", "chi20", "chi30", "phi1", "chi21", "chi31")


@dataclass
class ExperimentConfig:
    """A resolved experiment: ``params`` holds the given parameters, coerced,
    and the kind's defaults (``i = n`` for ``fock-distribution``); ``sweep``
    maps each swept name, in declaration order, to its checked axis values
    ``np.linspace(start, stop, count)``; ``provided`` names what was given."""

    kind: str
    params: dict
    sweep: dict = field(default_factory=dict)
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
        for key, value in raw_params.items():
            if key not in schema:
                raise ExperimentConfigError(
                    f"parameter {key!r} is not valid for kind {kind!r}; "
                    f"allowed: {sorted(schema)}"
                )
            params[key] = _coerce(schema[key][0], key, value)
        bounds = {}
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
                bounds[name] = (_coerce("float", f"{name}.start", axis["start"]),
                                _coerce("float", f"{name}.stop", axis["stop"]),
                                _coerce("int", f"{name}.count", axis["count"]))
            except KeyError as missing:
                raise ExperimentConfigError(f"axis {name!r} is missing {missing}") from None
        out = _out_path(mapping.get("out"))
        provided = set(params) | set(bounds)
        missing = [name for name, (_, default) in schema.items()
                   if default is _REQUIRED and name not in provided]
        if missing:
            raise ExperimentConfigError(
                f"kind {kind!r} requires parameters {sorted(missing)}"
            )
        if "delta" in provided and any(key in provided for key in _ANGLE_KEYS):
            raise ExperimentConfigError(
                "give either delta or explicit stage angles, not both"
            )
        for name, (_, default) in schema.items():
            if name not in params and default not in (None, _REQUIRED):
                params[name] = default
        if kind == "fock-distribution" and "i" not in params:
            params["i"] = params["n"]
        if kind == "homodyne" and params["probe"] not in (PROBE_QUANTUM, PROBE_CLASSICAL):
            raise ExperimentConfigError(
                f"probe must be {PROBE_QUANTUM!r} or {PROBE_CLASSICAL!r}, "
                f"got {params['probe']!r}"
            )
        sweep = {}
        for name, (start, stop, count) in bounds.items():
            if count < 1:
                raise ExperimentConfigError(f"axis {name!r} needs count >= 1, got {count}")
            if not math.isfinite(stop - start):
                raise ExperimentConfigError(f"axis {name!r} from {start!r} to {stop!r} is not finite")
            try:
                sweep[name] = np.linspace(start, stop, count)
            # numpy raises IndexError rather than ValueError for counts from 2**63 - 1 to 2**64 - 2
            except (ValueError, IndexError):
                raise ExperimentConfigError(f"axis {name!r} count {count} is more than numpy can size") from None
        counts = tuple(map(len, sweep.values()))
        # the bytes of the driver's array of 8-byte float axis and value columns over the grid
        if math.prod(counts) * (len(counts) + len(_KINDS[kind].columns)) * 8 > sys.maxsize:
            raise ExperimentConfigError(
                f"sweep grid of {' x '.join(map(str, counts))} points is more than numpy can size")
        return cls(kind=kind, params=params, sweep=sweep, out=out, provided=provided)


def _out_path(out):
    """out, None or a path string; ExperimentConfigError for anything else,
    the empty string and a string holding NUL included."""
    if out is not None and not (isinstance(out, str) and out and "\0" not in out):
        raise ExperimentConfigError("out must be a path string")
    return out


def _coerce(type_name: str, key: str, value):
    if type_name == "float":
        if isinstance(value, bool):
            raise ExperimentConfigError(f"{key} must be a number, got {value!r}")
        if isinstance(value, (int, float)):
            try:
                return float(value)
            except OverflowError:   # an integer past the float range, read as its digits would be
                return math.inf if value > 0 else -math.inf
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
    NAME is shorthand for params.NAME.  Each part of the configuration a path
    passes through must be a mapping, or is created as one.
    """
    for assignment in assignments:
        if "=" not in assignment:
            raise ExperimentConfigError(f"override {assignment!r} is not of the form key=value")
        path, value = assignment.split("=", 1)
        keys = path.strip().split(".")
        if len(keys) == 1 and keys[0] not in ("kind", "out", ""):
            keys = ["params", *keys]
        if len(keys) != {"kind": 1, "out": 1, "params": 2, "sweep": 3}.get(keys[0]):
            raise ExperimentConfigError(f"override path {path!r} is not recognized")
        place = mapping
        for depth, key in enumerate(keys):
            if not isinstance(place, dict):
                where = ".".join(keys[:depth]) or "the configuration"
                raise ExperimentConfigError(f"override {path.strip()!r} writes into {where}, which is not a mapping")
            if depth < len(keys) - 1:
                place = place.setdefault(key, {})
        place[keys[-1]] = value
    return mapping


# ----------------------------------------------------------------------
# kinds: a grid kernel and a single-point route per quantity

def _transfer_from_params(params: dict):
    if params.get("delta") is not None:
        return magnetic_phase_matrix(params["delta"])
    angles = [params[key] for key in _ANGLE_KEYS]
    return build_transfer_matrix(StageAngles(*angles[:3]), StageAngles(*angles[3:]))


def _grid_transfer(grid: dict) -> np.ndarray:
    """(4, *grid) transfer entries, grid axes possibly 1, NaN where they fail UNITARITY_TOL."""
    entries = (magnetic_phase_entries(grid["delta"]) if grid.get("delta") is not None
               else transfer_entries(*(grid[key] for key in _ANGLE_KEYS)))
    entries[:, ~(unitarity_defects(entries) <= UNITARITY_TOL)] = np.nan
    return entries


def _fock_distribution(params: dict):
    transfer = _transfer_from_params(params)
    return release_distribution_unit_overlap(FockInput(params["n"], params["m"], GramMatrix(params["s"])), transfer)


def _count_kernel(grid: dict):
    n, m, target = grid["n"], grid["m"], grid["i"]
    # the FockInput checks and the count range hold at every point or at none
    if not (min(n, m) >= 0 and 0 <= target <= n + m <= MAX_TOTAL_PHOTONS):
        return [np.nan], np.False_
    # the transfers and the overlap keep their own grid axes
    probs, passed = release_probabilities(n, m, _grid_transfer(grid), abs(grid["s"]))
    return [probs[..., target].clip(0.0, 1.0)], passed


def _count_point(params: dict) -> tuple:
    distribution = _fock_distribution(params)
    target = params["i"]
    if not 0 <= target < len(distribution):
        raise ExperimentConfigError(f"count i={target} outside 0..{len(distribution) - 1}")
    return (distribution[target],)


def _quadrature_kernel(grid: dict):
    return quadrature_moments(_grid_transfer(grid)[:2], grid["r1"], grid["r2"],
                              (grid["alpha1_re"], grid["alpha1_im"]),
                              (grid["alpha2_re"], grid["alpha2_im"]))


def _uncertainty_kernel(grid: dict):
    (_, _, var_q, var_p), passed = _quadrature_kernel(grid)
    product = var_q * var_p
    return (var_q, var_p, product), passed & np.isfinite(product)


def _released(params: dict):
    transfer = _transfer_from_params(params)
    inputs = SqueezedInput(complex(params["alpha1_re"], params["alpha1_im"]),
                           complex(params["alpha2_re"], params["alpha2_im"]), params["r1"], params["r2"])
    return released_quadratures(inputs, transfer)


def _uncertainty_point(params: dict) -> tuple:
    stats = _released(params)
    return stats.var_q, stats.var_p, uncertainty_product(stats)


def _homodyne_kernel(grid: dict):
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
    # parameters, each a number or an array broadcastable to the grid -> (value columns and
    # numpy bool mask of passing points, each broadcastable to the grid); the mask alone decides,
    # so it covers every check and column's finiteness; only kinds reading a transfer build one
    kernel: Callable
    # parameters -> values at one point through the public scalar functions,
    # raising that point's own error
    point: Callable


# the magnetic phase or the six stage angles that build a transfer
_TRANSFER = {"delta": ("float", None), **{key: ("float", 0.0) for key in _ANGLE_KEYS}}
_SQUEEZED_INPUTS = {
    "r1": ("float", 0.0),
    "r2": ("float", 0.0),
    "alpha1_re": ("float", 0.0),
    "alpha1_im": ("float", 0.0),
    "alpha2_re": ("float", 0.0),
    "alpha2_im": ("float", 0.0),
    **_TRANSFER,
}

_KINDS = {
    "fock-distribution": _Kind({
        "n": ("int", _REQUIRED),
        "m": ("int", _REQUIRED),
        "i": ("int", None),
        "s": ("float", 1.0),
        **_TRANSFER,
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
    """A finished run as one (rows, columns) float array, ready for CSV.

    ``axis_counts`` holds the point counts of the sweep axes when the leading
    ``len(axis_counts)`` columns are those axes in row-major product order:
    axis k's value at row r is its ``(r // stride) % count``-th value, stride
    being the product of the later axes' counts.  The default, no axes, makes
    no claim about any column.
    """

    columns: tuple
    values: np.ndarray
    axis_counts: tuple = ()

    @property
    def rows(self) -> list:
        return list(map(tuple, self.values.tolist()))

    def to_csv_text(self) -> str:
        cell = f"%.{SIGNIFICANT_DIGITS}g"
        header = ",".join(self.columns) + "\n"
        axes = len(self.axis_counts)
        if axes < 2:
            return header + self._rows_text(cell)
        # on a grid each axis value repeats across the later axes: format each
        # once, write the last axis and the value cells as one block of rows,
        # and put each prefix of the leading axes in front of the block's rows
        stride = len(self.values)
        prefixes = [""]
        for k, count in enumerate(self.axis_counts):
            stride //= count
            axis_cell = f",{cell}" if k else cell
            texts = [axis_cell % value for value in self.values[:stride * count:stride, k].tolist()]
            if k < axes - 1:
                prefixes = [prefix + text for prefix in prefixes for text in texts]
        rest = "".join([f",{cell}"] * (len(self.columns) - axes)) + "\n"
        block = [text + rest for text in texts]
        template = "".join([prefix + prefix.join(block) for prefix in prefixes])
        return header + template % tuple(self.values[:, axes:].ravel().tolist())

    def _rows_text(self, cell: str) -> str:
        # a single axis repeats no value, so prefixes would save nothing
        template = ",".join([cell] * len(self.columns)) + "\n"
        return template * len(self.values) % tuple(self.values.ravel().tolist())

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


class _CountDistribution(Dataset):
    """run_single's full count distribution: read-only values whose counts
    are 0..N, so its rows fill in only the probabilities of _COUNT_ROWS."""

    def _rows_text(self, cell: str) -> str:
        return "".join(_COUNT_ROWS[:len(self.values)]) % tuple(self.values[:, 1].tolist())


def run_experiment(config: ExperimentConfig) -> Dataset:
    """Evaluate the configured quantity over the grid of ``config.sweep``'s
    checked axis values in one array pass through the kind's kernel.  Each axis
    is its own grid dimension, the kernel's columns broadcast over them, and
    its mask alone decides which points fail.

    Rows are emitted in row-major order of the sweep axes as declared.  At the
    first point, in that order, that fails a check, the single-point route
    runs again and raises its error with ``at <axis>=<value>, ...`` appended:
    the error that point raises on its own.
    """
    kind = _KINDS[config.kind]
    names = list(config.sweep)
    axes = list(config.sweep.values())
    # axis k runs along grid dimension k, so a function of one parameter
    # runs once per value of its axis; no sweep is a grid of one point
    shape = tuple(map(len, axes)) or (1,)
    along = axes if len(axes) < 2 else [
        coords.reshape([-1 if j == k else 1 for j in range(len(axes))]) for k, coords in enumerate(axes)]
    with np.errstate(all="ignore"):
        columns, passed = kind.kernel({**config.params, **dict(zip(names, along))})
    values = np.empty((*shape, len(names) + len(kind.columns)))
    for k, column in enumerate([*along, *columns]):
        values[..., k] = column
    if len(shape) > 1:
        values = values.reshape(-1, values.shape[-1])
    if not passed.all():
        index = np.unravel_index(np.argmin(np.broadcast_to(passed, shape)), shape)
        point = {**config.params, **{name: float(axis[i]) for name, axis, i in zip(names, axes, index)}}
        where = ", ".join(f"{name}={point[name]!r}" for name in names)
        try:
            kind.point(point)
        except SimulationError as exc:
            exc.args = (f"{exc} at {where}",) if where else exc.args
            raise
        raise InternalConsistencyError(f"sweep and single-point routes disagree at {where}")
    return Dataset(columns=tuple(names) + kind.columns, values=values,
                   axis_counts=tuple(map(len, axes)))


def run_single(config: ExperimentConfig) -> Dataset:
    """One-shot evaluation through the single-point route.  For the count
    distribution without an explicit target the full distribution is
    returned, one row per count."""
    if config.sweep:
        raise ExperimentConfigError("run_single does not accept sweep axes")
    if config.kind == "fock-distribution" and "i" not in config.provided:
        probabilities = _fock_distribution(config.params).probabilities
        values = np.empty((probabilities.size, 2))
        values[:, 0] = np.arange(probabilities.size)
        values[:, 1] = probabilities
        values.flags.writeable = False
        return _CountDistribution(("i", "probability"), values)
    kind = _KINDS[config.kind]
    return Dataset(columns=kind.columns, values=np.array([kind.point(config.params)], dtype=float))


# ----------------------------------------------------------------------
# canned figures

_GRID_ANGLE = {"start": 0.0, "stop": "pi/2", "count": 65}
_GRID_PHASE = {"start": 0.0, "stop": "2*pi", "count": 65}
# figures 2-4: two squeezed inputs over the release-stage mixing angle and phase
_SQUEEZED_FIGURE = {"params": {"r1": 1.0, "r2": 0.5, "phi0": "pi/4"},
                    "sweep": {"phi1": _GRID_ANGLE, "chi21": _GRID_PHASE}}

_FIGURES: dict[int, tuple[dict, tuple]] = {
    1: ({
        "kind": "fock-distribution",
        "params": {"n": 6, "m": 6, "i": 6, "s": 1.0, "phi0": "pi/8"},
        "sweep": {"phi1": _GRID_ANGLE, "chi21": _GRID_PHASE},
    }, ("probability",)),
    2: ({"kind": "quadratures", **_SQUEEZED_FIGURE}, ("var_q",)),
    3: ({"kind": "quadratures", **_SQUEEZED_FIGURE}, ("var_p",)),
    4: ({"kind": "uncertainty-product", **_SQUEEZED_FIGURE}, ("product",)),
    5: ({
        "kind": "homodyne",
        "params": {"r1": 1.0, "alpha2_mod": 20.0, "phi0": "pi/8", "probe": PROBE_QUANTUM},
        "sweep": {"phi1": _GRID_ANGLE, "gamma": _GRID_PHASE},
    }, ("var_k",)),
}


def run_figure(figure_id: int, workers: int = 1) -> Dataset:
    """Regenerate one of the canned datasets on its 64x64-cell grid.

    ``workers`` is unused: only ``bench/run.py --trace 1`` still passes it."""
    if figure_id not in _FIGURES:
        raise ExperimentConfigError(f"figure id must be one of {sorted(_FIGURES)}, got {figure_id}")
    mapping, keep = _FIGURES[figure_id]
    config = ExperimentConfig.from_mapping(mapping)
    dataset = run_experiment(config)
    wanted = tuple(config.sweep) + keep
    return Dataset(wanted, dataset.values[:, [dataset.columns.index(name) for name in wanted]],
                   dataset.axis_counts)


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

    sweep = sub.add_parser("sweep", help="grid sweep from a JSON description")
    sweep.add_argument("--config", required=True, help="JSON experiment description")
    sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a configuration entry; repeatable")
    sweep.add_argument("--out", default=None, help="output CSV path (overrides the file)")

    single = sub.add_parser("eval", help="evaluate a single parameter point")
    single.add_argument("--kind", required=True, help=f"one of {sorted(_KINDS)}")
    single.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="parameter assignment; repeatable")
    single.add_argument("--out", default=None, help="output CSV path (default stdout)")
    return parser


def _read_config(path: str):
    """The JSON value in ``path``; any failure to read it is a configuration error."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ExperimentConfigError(f"cannot read config: {exc}") from None
    # undecodable bytes, nesting past the recursion limit and integers past
    # Python's digit limit raise these rather than json.JSONDecodeError
    except (ValueError, RecursionError) as exc:
        raise ExperimentConfigError(f"config is not valid JSON: {exc}") from None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        out = _out_path(args.out)
        if args.command == "figure":
            dataset = run_figure(args.id)
        else:
            sweep = args.command == "sweep"
            mapping = _read_config(args.config) if sweep else {"kind": args.kind}
            config = ExperimentConfig.from_mapping(apply_overrides(mapping, args.set))
            out = config.out if out is None else out
            if sweep and out is None:
                raise ExperimentConfigError("no output path: give out in the config or --out")
            dataset = (run_experiment if sweep else run_single)(config)
        text = dataset.to_csv_text()
        if out is None:
            sys.stdout.write(text)
        else:
            with open(out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
    except (SimulationError, OSError, MemoryError) as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2 if isinstance(exc, ExperimentConfigError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
