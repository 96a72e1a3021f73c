"""Per-layer spans around the calls storedlight.cli makes into each module.

The tracer replaces names in the ``storedlight.cli`` namespace (and two class
attributes) with wrappers that time each call, so no program file changes.
Spans are aggregated as they close: a span's self time is its duration minus
the time of the wrapped calls it made, and a layer's self time is the sum over
its names.  A name that a later version no longer has is skipped, and its
layer reports zero calls.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

LAYERS = {
    "cli.parse": ("apply_overrides", "parse_number_expression", "ExperimentConfig.from_mapping"),
    "cli.driver": ("run_experiment", "run_figure", "run_single"),
    "cli.csv": ("Dataset.to_csv_text",),
    "mode_transform": ("StageAngles", "GramMatrix", "build_transfer_matrix", "magnetic_phase_matrix"),
    "gaussian_states": ("SqueezedInput", "released_quadratures", "uncertainty_product"),
    "homodyne": ("HomodyneConfig", "general_variance"),
    "fock_interference": ("FockInput", "release_distribution_unit_overlap"),
    "fock_oracle": ("ModeBasis", "build_fock_input", "released_number_operator", "oracle_distribution"),
}

# name, unit, better direction of every per-layer metric the benchmark reports
PER_LAYER = (
    ("storedlight.import_s", "s", "lower"),
    ("storedlight.import_scipy_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.driver_self_s", "s", "lower"),
    ("cli.points", "count", "higher"),
    ("cli.csv_s", "s", "lower"),
    ("cli.csv_bytes", "bytes", "lower"),
    ("cli.pool_speedup", "ratio", "higher"),
    ("mode_transform.calls", "count", "lower"),
    ("mode_transform.self_s", "s", "lower"),
    ("gaussian_states.calls", "count", "lower"),
    ("gaussian_states.self_s", "s", "lower"),
    ("homodyne.calls", "count", "lower"),
    ("homodyne.self_s", "s", "lower"),
    ("fock_interference.calls", "count", "lower"),
    ("fock_interference.self_s", "s", "lower"),
    ("fock_interference.raised", "count", "lower"),
    ("fock_interference.worst_sum_error", "prob", "lower"),
    ("fock_oracle.calls", "count", "lower"),
    ("fock_oracle.self_s", "s", "lower"),
    ("fock_oracle.basis_builds", "count", "lower"),
    ("fock_oracle.number_op_s", "s", "lower"),
    ("fock_oracle.spectral_s", "s", "lower"),
    ("fock_oracle.sector_dim", "states", "lower"),
    ("check.s", "s", "lower"),
    ("check.points", "count", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.raised = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.points = 0
        self.csv_bytes = 0
        self.worst_sum_error = 0.0
        self.sector_dim = 0
        self._stack = []
        self._patches = []

    # -- installation ---------------------------------------------------

    def install(self, cli) -> None:
        for names in LAYERS.values():
            for name in names:
                self._wrap(cli, name)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, cli, name: str) -> None:
        owner, _, attr = name.rpartition(".")
        owner = getattr(cli, owner, None) if owner else cli
        if owner is None:
            return
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._span(name, raw.__func__))
        else:
            wrapped = self._span(name, raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _span(self, name: str, fn):
        stack, hook = self._stack, getattr(self, "_after_" + name.replace(".", "_"), None)
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                self_s[name] += duration - frame[0]
                total_s[name] += duration
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- counters taken from results, outside the spans -------------------

    def _after_run_experiment(self, args, result) -> None:
        self.points += len(getattr(result, "rows", ()))

    def _after_run_single(self, args, result) -> None:
        self.points += 1

    def _after_Dataset_to_csv_text(self, args, result) -> None:
        self.csv_bytes += len(result.encode("utf-8"))

    def _after_release_distribution_unit_overlap(self, args, result) -> None:
        probabilities = getattr(result, "probabilities", None)
        if probabilities is not None:
            self.worst_sum_error = max(self.worst_sum_error, abs(float(probabilities.sum()) - 1.0))

    def _after_oracle_distribution(self, args, result) -> None:
        state = args[0] if args else None
        sector = getattr(getattr(state, "basis", None), "sector_indices", None)
        if sector is not None and getattr(state, "total", None) is not None:
            self.sector_dim = max(self.sector_dim, int(sector(state.total).size))

    # -- report ----------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-pass figures of every layer."""
        def layer(prefix):
            names = LAYERS[prefix]
            return (sum(self.calls[n] for n in names) / passes,
                    sum(self.self_s[n] for n in names) / passes)

        out = {
            "cli.parse_s": layer("cli.parse")[1],
            "cli.driver_self_s": layer("cli.driver")[1],
            "cli.points": self.points / passes,
            "cli.csv_s": layer("cli.csv")[1],
            "cli.csv_bytes": self.csv_bytes / passes,
        }
        for module in ("mode_transform", "gaussian_states", "homodyne", "fock_interference", "fock_oracle"):
            out[f"{module}.calls"], out[f"{module}.self_s"] = layer(module)
        out["fock_interference.raised"] = self.raised["release_distribution_unit_overlap"] / passes
        out["fock_interference.worst_sum_error"] = self.worst_sum_error
        out["fock_oracle.basis_builds"] = self.calls["ModeBasis"] / passes
        out["fock_oracle.number_op_s"] = self.total_s["released_number_operator"] / passes
        out["fock_oracle.spectral_s"] = self.total_s["oracle_distribution"] / passes
        out["fock_oracle.sector_dim"] = self.sector_dim
        return out

    def by_name(self, passes: int) -> dict:
        return {name: {"calls": self.calls[name] / passes, "self_s": self.self_s[name] / passes,
                       "total_s": self.total_s[name] / passes, "raised": self.raised[name] / passes}
                for name in sorted(self.calls)}
