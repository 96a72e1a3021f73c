import copy
import functools
import hashlib
import inspect
import itertools
import json
import math
import operator
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import HOM_OVERLAPS, overshoot_unit_overlap
from storedlight import (
    CapacityError,
    ExperimentConfigError,
    FockInput,
    GramMatrix,
    InternalConsistencyError,
    ParameterDomainError,
    SimulationError,
    StageAngles,
    build_transfer_matrix,
    cli,
    fock_interference,
    magnetic_phase_matrix,
    mean_release_count,
    release_distribution,
    release_variance,
)
from storedlight.cli import (
    MAX_TOTAL_PHOTONS,
    Dataset,
    ExperimentConfig,
    apply_overrides,
    main,
    parse_number_expression,
    run_experiment,
    run_figure,
    run_single,
)
from storedlight.homodyne import count_difference_variance
from storedlight.mode_transform import unitarity_defects

FIGURE_DIGESTS = {
    1: "25b6664ee04cd24de6a1608070e54496a024eb90b29af4ecd6fbdbd16c6e953b",
    2: "3f36c57ecff0414292322d0d1fc5fc7cfc702a0b2d22bbba6080095671639b34",
    3: "238b3861172fa7b41a29f67a67915524c16d3f0b6b62353097962728e1caf1e3",
    4: "47563d4156a137778bc293817e6e00dfa45dfc15e3de7f3405f1171e8076b4ed",
    5: "dac1ff768dc03806f8de7fe1b28ec45c6ddaaf1c2eb730047f3b474b6fcbc128",
}


# generalised Hong-Ou-Mandel dips at n = m: 33 deltas by 65 packet overlaps
HOM_DIP_AXES = ["--set", "sweep.delta.start=0", "--set", "sweep.delta.stop=pi", "--set", "sweep.delta.count=33",
                "--set", "sweep.s.start=0", "--set", "sweep.s.stop=1", "--set", "sweep.s.count=65"]
HOM_DIP_DIGESTS = {
    6: "77695d4cf079c08124c1fdbc149945024f7ad34af0bd2ad4f04deb73e1e6fafe",
    16: "38ac0a8f094ab3b42bdd451f78cdb94982cedd3c63491d8df03d1efe9fab88c5",
    32: "a634e68b9c64421ae38c90491dff083fff390d8d86b1fa87eb1e56cdf89792bc",
}


def float_bits(value):
    return struct.pack("<d", value)


def assert_sweep_is_the_single_point_route(kind, params, sweep):
    """The sweep's rows are run_single's values bit for bit, or the sweep
    raises the first failing point's own error with the point appended."""
    config = ExperimentConfig.from_mapping({"kind": kind, "params": params, "sweep": sweep})
    expected = []
    for combo in itertools.product(*config.sweep.values()):
        point = {**params, **{name: float(v) for name, v in zip(sweep, combo)}}
        try:
            dataset = run_single(ExperimentConfig.from_mapping({"kind": kind, "params": point}))
        except SimulationError as exc:
            with pytest.raises(type(exc)) as raised:
                run_experiment(config)
            where = ", ".join(f"{name}={float(v)!r}" for name, v in zip(sweep, combo))
            assert str(raised.value) == f"{exc} at {where}"
            return
        expected.append(tuple(combo) + dataset.rows[0])
    got = run_experiment(config).rows
    assert [tuple(map(float_bits, row)) for row in got] == [tuple(map(float_bits, row)) for row in expected]


@st.composite
def grammar_expressions(draw):
    """Text from the expression grammar, with the value the grammar gives it
    (left-associative operators, signs applied to a primary) or None where
    it divides by zero."""
    space = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\u00a0"])
    digits = st.text("0123456789", min_size=1, max_size=4)
    mantissa = st.one_of(digits, st.tuples(digits, st.just("."), digits | st.just("")).map("".join),
                         digits.map(".".__add__))
    numeral = st.tuples(mantissa, st.sampled_from(["", "e", "E-", "e+"]), digits).map(
        lambda parts: parts[0] + (parts[1] + parts[2] if parts[1] else ""))

    def primary(depth):
        kind = draw(st.integers(0, 2 if depth < 2 else 1))
        if kind == 0:
            text = draw(numeral)
            return text, float(text)
        if kind == 1:
            return "pi", math.pi
        text, value = expr(depth + 1)
        return f"({draw(space)}{text}{draw(space)})", value

    def unary(depth):
        signs = draw(st.lists(st.sampled_from("+-"), max_size=3))
        text, value = primary(depth)
        sign = -1.0 if signs.count("-") % 2 else 1.0
        return "".join(c + draw(space) for c in signs) + text, None if value is None else sign * value

    def chain(item, ops, depth):
        text, value = item(depth)
        for _ in range(draw(st.integers(0, 2 if depth == 0 else 1))):
            op = draw(st.sampled_from(ops))
            rhs_text, rhs = item(depth)
            text += draw(space) + op + draw(space) + rhs_text
            if value is None or rhs is None or (op == "/" and rhs == 0.0):
                value = None
            else:
                value = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op](value, rhs)
        return text, value

    def term(depth):
        return chain(unary, "*/", depth)

    def expr(depth):
        return chain(term, "+-", depth)

    text, value = expr(0)
    return draw(space) + text + draw(space), value


class TestExpressionParser:
    @pytest.mark.parametrize("text,value", [
        ("0", 0.0),
        ("1.5", 1.5),
        ("1e-3", 1e-3),
        ("pi", np.pi),
        ("pi/8", np.pi / 8),
        ("3*pi/8", 3 * np.pi / 8),
        ("2*pi", 2 * np.pi),
        ("-pi", -np.pi),
        ("(1+2)*pi", 3 * np.pi),
        ("pi*(1/4+1/4)", np.pi / 2),
        ("1-2-3", -4.0),
        ("--2", 2.0),
    ])
    def test_values(self, text, value):
        assert parse_number_expression(text) == pytest.approx(value, abs=1e-15)

    @pytest.mark.parametrize("text", ["", "pi/", "1//2", "2(3)", "(1", "1+", "two", "1/0"])
    def test_rejections(self, text):
        with pytest.raises(ExperimentConfigError):
            parse_number_expression(text)

    @given(grammar_expressions())
    @settings(max_examples=200, deadline=None)
    def test_grammar_corpus(self, case):
        text, value = case
        if value is None:
            with pytest.raises(ExperimentConfigError):
                parse_number_expression(text)
        elif math.isnan(value):
            assert math.isnan(parse_number_expression(text))
        else:
            assert float_bits(parse_number_expression(text)) == float_bits(value)

    @pytest.mark.parametrize("text,value", [
        ("08", 8.0), ("1.", 1.0), ("007.50", 7.5), ("1e05", 1e5), (" \t-\n2 ", -2.0),
        ("\u0661\u0662", 12.0), ("9" * 5000, math.inf),
    ])
    def test_forms_python_would_read_differently(self, text, value):
        assert parse_number_expression(text) == value

    @pytest.mark.parametrize("value", [[1], {}, None])
    def test_non_strings_are_configuration_errors(self, value):
        with pytest.raises(ExperimentConfigError, match="expected an expression string"):
            parse_number_expression(value)

    @pytest.mark.parametrize("text", ["pi/", "1/0", "2pi", "(1"])
    def test_errors_repeat_on_every_call(self, text):
        messages = []
        for _ in range(2):
            with pytest.raises(ExperimentConfigError) as raised:
                parse_number_expression(text)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    def test_python_never_compiles_the_expression(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("compile() ran")

        # undone before pytest, which compiles too, reports the outcome
        with monkeypatch.context() as patch:
            patch.setattr("builtins.compile", refuse)
            values = [parse_number_expression("3*pi/8"), parse_number_expression("(1+2)*pi")]
        assert list(map(float_bits, values)) == [float_bits(3 * math.pi / 8), float_bits(3 * math.pi)]

    def test_nesting_past_python_parser_limit(self):
        # Python's parser stops at 200 nested parentheses; only recursion bounds them here
        assert float_bits(parse_number_expression("(" * 250 + "-pi/8" + ")" * 250)) == float_bits(-math.pi / 8)
        with pytest.raises(ExperimentConfigError, match="maximum recursion depth"):
            parse_number_expression("(" * 100_000 + "1" + ")" * 100_000)

    def test_long_chains_evaluate_left_to_right(self):
        assert parse_number_expression("+".join(["1"] * 3001)) == 3001.0
        left_to_right = functools.reduce(operator.add, [0.1] * 3001)
        assert float_bits(parse_number_expression("0.1+" * 3000 + "0.1")) == float_bits(left_to_right)
        assert parse_number_expression("-" * 3001 + "2") == -2.0

    @pytest.mark.parametrize("text", [
        "0x10", "1_0", "1j", "2**3", "True", "nan", "pi()", "1 # comment", "\uff50\uff49", "pi.real",
        "-(1)e-3", "1e", "2pi", "1 2", "1..5", "()", "(1,2)",
    ])
    def test_python_only_forms_exit_2(self, text, capsys):
        with pytest.raises(ExperimentConfigError):
            parse_number_expression(text)
        assert main(["eval", "--kind", "fock-distribution", "--set", "n=1", "--set", "m=1",
                     "--set", f"delta={text}"]) == 2
        assert capsys.readouterr().err.startswith("error: ExperimentConfigError:")


class TestOverrides:
    def test_paths_and_shorthand(self):
        mapping = apply_overrides({"kind": "homodyne"}, [
            "params.r1=0.5",
            "alpha2_mod=2",
            "sweep.gamma.count=9",
            "out=somewhere.csv",
        ])
        assert mapping["params"] == {"r1": "0.5", "alpha2_mod": "2"}
        assert mapping["sweep"]["gamma"]["count"] == "9"
        assert mapping["out"] == "somewhere.csv"

    def test_bad_assignment(self):
        with pytest.raises(ExperimentConfigError):
            apply_overrides({}, ["r1"])
        with pytest.raises(ExperimentConfigError):
            apply_overrides({}, ["a.b.c.d=1"])

    @pytest.mark.parametrize("text,override,where", [
        ("[]", "n=1", "the configuration"),
        ('{"kind": "homodyne", "params": [1]}', "alpha2_mod=1", "params"),
        ('{"kind": "homodyne", "sweep": {"gamma": [1]}}', "sweep.gamma.start=0", "sweep.gamma"),
        ('"text"', "kind=homodyne", "the configuration"),
    ], ids=["list", "params-list", "axis-list", "string"])
    def test_overrides_into_a_non_mapping_exit_2(self, text, override, where, tmp_path, capsys):
        message = f"override {override.split('=')[0]!r} writes into {where}, which is not a mapping"
        with pytest.raises(ExperimentConfigError) as raised:
            apply_overrides(json.loads(text), [override])
        assert str(raised.value) == message
        config_path = tmp_path / "run.json"
        config_path.write_text(text)
        assert main(["sweep", "--config", str(config_path), "--set", override, "--out", str(tmp_path / "a.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: ExperimentConfigError: {message}\n")
        assert not (tmp_path / "a.csv").exists()


class TestExperimentConfig:
    def test_minimal_fock(self):
        config = ExperimentConfig.from_mapping(
            {"kind": "fock-distribution", "params": {"n": 1, "m": 1}})
        assert config.params["s"] == 1.0
        assert config.params["i"] == 1  # defaults to n

    def test_expressions_in_parameters(self):
        config = ExperimentConfig.from_mapping({
            "kind": "homodyne",
            "params": {"alpha2_mod": 2, "phi0": "pi/8", "phi1": "3*pi/8"},
        })
        assert config.params["phi1"] == pytest.approx(3 * np.pi / 8)

    def test_unknown_kind_and_parameter(self):
        with pytest.raises(ExperimentConfigError):
            ExperimentConfig.from_mapping({"kind": "count-statistics"})
        with pytest.raises(ExperimentConfigError):
            ExperimentConfig.from_mapping(
                {"kind": "homodyne", "params": {"alpha2_mod": 1, "squeeze": 2}})

    def test_missing_required(self):
        with pytest.raises(ExperimentConfigError):
            ExperimentConfig.from_mapping({"kind": "fock-distribution", "params": {"n": 1}})

    def test_delta_excludes_stage_angles(self):
        with pytest.raises(ExperimentConfigError):
            ExperimentConfig.from_mapping({
                "kind": "fock-distribution",
                "params": {"n": 1, "m": 1, "delta": 0.4, "phi1": 0.2},
            })

    def test_delta_conflict_includes_swept_angles(self):
        with pytest.raises(ExperimentConfigError):
            ExperimentConfig.from_mapping({
                "kind": "fock-distribution",
                "params": {"n": 1, "m": 1, "delta": 0.4},
                "sweep": {"phi1": {"start": 0, "stop": 1, "count": 3}},
            })

    def test_cannot_sweep_integers(self):
        with pytest.raises(ExperimentConfigError):
            ExperimentConfig.from_mapping({
                "kind": "fock-distribution",
                "params": {"n": 1, "m": 1},
                "sweep": {"n": {"start": 0, "stop": 4, "count": 5}},
            })

    def test_required_parameter_may_be_a_sweep_axis(self):
        config = ExperimentConfig.from_mapping({
            "kind": "homodyne",
            "sweep": {"alpha2_mod": {"start": 0, "stop": 2, "count": 3}},
        })
        assert run_experiment(config).column("alpha2_mod").tolist() == [0.0, 1.0, 2.0]

    def test_integers_reject_underscores(self, tmp_path, capsys):
        assert main(["eval", "--kind", "fock-distribution", "--set", "n=1_0", "--set", "m=1",
                     "--set", "delta=pi/3"]) == 2
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "kind": "fock-distribution", "params": {"n": 1, "m": 1},
            "sweep": {"delta": {"start": 0, "stop": 1, "count": "1_0"}},
        }))
        assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "a.csv")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: ExperimentConfigError:") for line in err)
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("mapping,message", [
        ([], "configuration must be a mapping"),
        ({"kind": "homodyne", "params": [("alpha2_mod", 1)]}, "params must be a mapping"),
        ({"kind": "homodyne", "params": {"alpha2_mod": 1}, "sweep": ["gamma"]},
         "sweep must be a mapping of axis descriptions"),
        ({"kind": "homodyne", "params": {"alpha2_mod": 1}, "workers": 2, "seed": 1},
         "unknown configuration keys ['seed', 'workers']"),
        ({"kind": "homodyne", "params": {"alpha2_mod": 1},
          "sweep": {"gamma": {"start": 0, "stop": 1, "count": 2, "step": 0.5}}},
         "axis 'gamma' must give exactly start, stop and count"),
        ({"kind": "homodyne", "params": {"alpha2_mod": 1}, "sweep": {"gamma": [0, 1, 2]}},
         "axis 'gamma' must give exactly start, stop and count"),
        ({"kind": "homodyne", "params": {"alpha2_mod": 1}, "out": 3}, "out must be a path string"),
        ({"kind": "homodyne", "params": {"alpha2_mod": 1, "probe": "semiclassical"}},
         "probe must be 'quantum' or 'classical', got 'semiclassical'"),
        ({"kind": "homodyne", "params": {"alpha2_mod": 1, "probe": 1}}, "probe must be of type str, got 1"),
        ({"kind": "homodyne", "params": {"alpha2_mod": True}}, "alpha2_mod must be a number, got True"),
        ({"kind": "homodyne", "params": {"alpha2_mod": 1},
          "sweep": {"gamma": {"start": False, "stop": 1, "count": 2}}}, "gamma.start must be a number, got False"),
        ({"kind": "fock-distribution", "params": {"n": True, "m": 1}}, "n must be an integer, got True"),
        ({"kind": "fock-distribution", "params": {"n": "two", "m": 1}}, "n must be of type int, got 'two'"),
        ({"kind": "fock-distribution", "params": {"n": 1.5, "m": 1}}, "n must be of type int, got 1.5"),
        ({"kind": "fock-distribution", "params": {"n": 1, "m": 1},
          "sweep": {"delta": {"start": 0, "stop": 1, "count": "3.0"}}}, "delta.count must be of type int, got '3.0'"),
        # the axis count and span checks come after every other check
        ({"kind": "fock-distribution", "params": {"n": 1},
          "sweep": {"delta": {"start": 0, "stop": 1, "count": 0}}},
         "kind 'fock-distribution' requires parameters ['m']"),
        ({"kind": "fock-distribution", "params": {"n": 1, "m": 1, "delta": 0.4},
          "sweep": {"phi1": {"start": 0, "stop": "1e309", "count": 3}}},
         "give either delta or explicit stage angles, not both"),
        ({"kind": "fock-distribution", "params": {"n": 1, "m": 1, "delta": 0.4, "phi0": 0.1},
          "sweep": {"s": {"start": 0, "stop": 1, "count": -1}}},
         "give either delta or explicit stage angles, not both"),
        ({"kind": "homodyne", "params": {"alpha2_mod": 1},
          "sweep": {"phi1": {"start": 0, "stop": "1e309", "count": 2},
                    "gamma": {"start": 0, "stop": 1, "count": 0}}},
         "axis 'phi1' from 0.0 to inf is not finite"),
    ])
    def test_rejections(self, mapping, message):
        with pytest.raises(ExperimentConfigError) as raised:
            ExperimentConfig.from_mapping(mapping)
        assert str(raised.value).startswith(message)

    # each count fails inside numpy before anything is allocated
    @pytest.mark.parametrize("sweep,message", [
        ({"gamma": {"start": 0, "stop": 1, "count": 10**20}},
         "axis 'gamma' count 100000000000000000000 is more than numpy can size"),
        ({"gamma": {"start": 0, "stop": 1, "count": 2**62}},
         f"axis 'gamma' count {2**62} is more than numpy can size"),
        ({"gamma": {"start": 0, "stop": 1, "count": 2**63}},
         f"axis 'gamma' count {2**63} is more than numpy can size"),
        # the first declared bad axis is reported
        ({"phi1": {"start": 0, "stop": 1, "count": 10**20}, "gamma": {"start": 0, "stop": 1, "count": 0}},
         "axis 'phi1' count 100000000000000000000 is more than numpy can size"),
        ({"phi1": {"start": 0, "stop": 1, "count": 0}, "gamma": {"start": 0, "stop": 1, "count": 10**20}},
         "axis 'phi1' needs count >= 1, got 0"),
    ], ids=["1e20", "2**62", "2**63", "first-of-two", "second-of-two"])
    def test_axis_count_numpy_cannot_size_exits_2(self, sweep, message, tmp_path, capsys):
        mapping = {"kind": "homodyne", "params": {"alpha2_mod": 1}, "sweep": sweep}
        with pytest.raises(ExperimentConfigError) as raised:
            ExperimentConfig.from_mapping(mapping)
        assert str(raised.value) == message
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(mapping))
        assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "a.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: ExperimentConfigError: {message}\n")
        assert not (tmp_path / "a.csv").exists()
        # the axis count and span checks come after every other check
        del mapping["params"]
        with pytest.raises(ExperimentConfigError, match=r"^kind 'homodyne' requires parameters \['alpha2_mod'\]$"):
            ExperimentConfig.from_mapping(mapping)

    def test_grid_numpy_cannot_size_exits_2(self, tmp_path, monkeypatch, capsys):
        # each axis sizes alone; their 10**20 grid points do not, and no kernel runs
        axis = {"start": 0, "stop": 1, "count": 10**4}
        mapping = {"kind": "homodyne", "sweep": dict.fromkeys(["r1", "alpha2_mod", "gamma", "phi0", "phi1"], axis)}
        message = "sweep grid of 10000 x 10000 x 10000 x 10000 x 10000 points is more than numpy can size"
        with pytest.raises(ExperimentConfigError, match=f"^{message}$"):
            ExperimentConfig.from_mapping(mapping)

        def kernel(*args, **kwargs):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(cli, "count_difference_variance", kernel)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(mapping))
        assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "a.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: ExperimentConfigError: {message}\n")
        assert not (tmp_path / "a.csv").exists()
        # one axis fewer is a grid numpy can size
        del mapping["sweep"]["phi1"]
        assert ExperimentConfig.from_mapping(mapping).sweep.keys() == {"r1", "alpha2_mod", "gamma", "phi0"}
        # 2**60 points fit numpy's index type, but not the 2**65 bytes of their four float columns
        axis = {"start": 0, "stop": 1, "count": 2**20}
        mapping = {"kind": "homodyne", "sweep": dict.fromkeys(["r1", "alpha2_mod", "gamma"], axis)}
        with pytest.raises(ExperimentConfigError, match=r"^sweep grid of 1048576 x 1048576 x 1048576 points "):
            ExperimentConfig.from_mapping(mapping)

    def test_out_with_a_null_character_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        for out in ("a\0b.csv", ""):
            config_path.write_text(json.dumps({"kind": "homodyne", "params": {"alpha2_mod": 1}, "out": out}))
            assert main(["sweep", "--config", str(config_path)]) == 2
            assert main(["eval", "--kind", "homodyne", "--set", "alpha2_mod=1", "--set", f"out={out}"]) == 2
            assert capsys.readouterr() == ("", "error: ExperimentConfigError: out must be a path string\n" * 2)

    def test_integral_numbers_are_integers(self):
        config = ExperimentConfig.from_mapping({
            "kind": "fock-distribution", "params": {"n": 2.0, "m": "1", "i": " 3 "},
            "sweep": {"delta": {"start": 0, "stop": 1, "count": 4.0}},
        })
        assert [(config.params[key], type(config.params[key])) for key in "nmi"] == [(2, int), (1, int), (3, int)]
        assert list(config.sweep) == ["delta"] and len(config.sweep["delta"]) == 4

    def test_axis_needs_all_three_fields(self):
        with pytest.raises(ExperimentConfigError):
            ExperimentConfig.from_mapping({
                "kind": "fock-distribution",
                "params": {"n": 1, "m": 1},
                "sweep": {"delta": {"start": 0, "count": 5}},
            })

    def test_sweep_holds_axis_values_in_declaration_order(self):
        config = ExperimentConfig.from_mapping({
            "kind": "homodyne", "params": {"alpha2_mod": 1},
            "sweep": {"phi1": {"start": "-pi/3", "stop": "3*pi/8", "count": 7},
                      "gamma": {"start": "pi/2", "stop": "2*pi", "count": 5}},
        })
        assert list(config.sweep) == ["phi1", "gamma"]
        expected = [np.linspace(-np.pi / 3, 3 * np.pi / 8, 7), np.linspace(np.pi / 2, 2 * np.pi, 5)]
        for values, want in zip(config.sweep.values(), expected):
            assert [float_bits(v) for v in values.tolist()] == [float_bits(v) for v in want.tolist()]

    @pytest.mark.parametrize("start,stop", [(0, "1e309"), ("-1e309", 1), ("-1e308", "1e308")])
    def test_axis_values_must_be_finite(self, start, stop, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "kind": "fock-distribution", "params": {"n": 1, "m": 1, "i": 1},
            "sweep": {"delta": {"start": start, "stop": stop, "count": 3}},
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "a.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ExperimentConfigError: axis 'delta' from ")
        assert err.endswith(" is not finite\n") and len(err.splitlines()) == 1
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    @pytest.mark.parametrize("where,status,message", [
        ("params", 1, "ParameterDomainError: squeezing parameter r1 must be finite"),
        ("sweep", 2, "ExperimentConfigError: axis 'r1' from {sign}inf to 1.0 is not finite"),
    ], ids=["param", "axis"])
    def test_integers_past_the_float_range_read_as_their_digits(self, sign, where, status, message, tmp_path,
                                                                capsys):
        # float() raises OverflowError on a JSON integer of 309 digits or more
        digits = sign + "1" + "0" * 400
        config_path = tmp_path / "run.json"
        for value in (int(digits), digits):
            r1 = value if where == "params" else {"start": value, "stop": 1, "count": 3}
            config_path.write_text(json.dumps({"kind": "quadratures", where: {"r1": r1}}))
            assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "a.csv")]) == status
            assert capsys.readouterr() == ("", f"error: {message.format(sign=sign)}\n")
        assert not (tmp_path / "a.csv").exists()


class TestRunners:
    def test_sweep_values(self):
        config = ExperimentConfig.from_mapping({
            "kind": "fock-distribution",
            "params": {"n": 1, "m": 1, "i": 1},
            "sweep": {"delta": {"start": 0, "stop": "2*pi", "count": 9}},
        })
        dataset = run_experiment(config)
        assert dataset.columns == ("delta", "probability")
        deltas = dataset.column("delta")
        assert np.allclose(dataset.column("probability"), np.cos(deltas) ** 2, atol=1e-12)

    def test_run_figure_ignores_its_workers_keyword(self):
        # bench/run.py --trace 1 still passes it
        text = run_figure(1, workers=2).to_csv_text()
        assert hashlib.sha256(text.encode()).hexdigest() == FIGURE_DIGESTS[1]
        assert "workers" not in inspect.signature(run_experiment).parameters

    def test_figures_leave_their_canned_mappings_alone(self):
        before = copy.deepcopy(cli._FIGURES)
        for figure in FIGURE_DIGESTS:
            run_figure(figure)
        assert cli._FIGURES == before

    @pytest.mark.parametrize("count", [0, -3])
    def test_axis_count_must_be_positive(self, count):
        with pytest.raises(ExperimentConfigError, match=f"^axis 'gamma' needs count >= 1, got {count}$"):
            ExperimentConfig.from_mapping({
                "kind": "homodyne", "params": {"alpha2_mod": 1},
                "sweep": {"gamma": {"start": 0, "stop": 1, "count": count}},
            })

    def test_disagreeing_routes_are_an_internal_error(self, monkeypatch):
        # the grid kernel fails gamma = 0.5, where the single-point route passes
        def kernel(*args):
            variance, passed = count_difference_variance(*args)
            return variance, passed & (np.asarray(args[2]) != 0.5)

        monkeypatch.setattr("storedlight.cli.count_difference_variance", kernel)
        config = ExperimentConfig.from_mapping({
            "kind": "homodyne", "params": {"alpha2_mod": 1},
            "sweep": {"phi1": {"start": 0, "stop": 1, "count": 2}, "gamma": {"start": 0, "stop": 1, "count": 3}},
        })
        with pytest.raises(InternalConsistencyError,
                           match=r"^sweep and single-point routes disagree at phi1=0\.0, gamma=0\.5$"):
            run_experiment(config)

    @given(n=st.integers(0, 64), m=st.integers(0, 64), i=st.integers(0, 64),
           axis=st.sampled_from(["delta", "angles"]), count=st.integers(1, 12),
           overlap_axis=st.booleans(), angles=st.lists(st.floats(-7, 7), min_size=4, max_size=4))
    @example(n=5, m=7, i=6, axis="delta", count=300, overlap_axis=True, angles=[0.1, 0.2, 0.3, 0.4])
    @example(n=30, m=30, i=30, axis="delta", count=33, overlap_axis=False, angles=[0.0] * 4)
    @settings(max_examples=30, deadline=None)
    def test_sweep_is_the_single_point_route_cell_for_cell(self, n, m, i, axis, count, overlap_axis,
                                                           angles):
        m = min(m, 64 - n)
        if axis == "delta":
            params = {"n": n, "m": m, "i": min(i, n + m)}
            sweep = {"delta": {"start": angles[0], "stop": angles[1] + 2 * np.pi, "count": count}}
        else:
            params = {"n": n, "m": m, "i": min(i, n + m), "phi0": angles[0], "chi20": angles[1]}
            sweep = {"phi1": {"start": angles[2], "stop": 1.5, "count": count},
                     "chi21": {"start": angles[3], "stop": 6.0, "count": 2}}
        if overlap_axis:
            # across |s| = 1 - UNIT_OVERLAP_TOL, where the route switches
            sweep["s"] = {"start": 1 - 3e-8, "stop": 1.0, "count": 4}
        assert_sweep_is_the_single_point_route("fock-distribution", params, sweep)

    @given(n=st.integers(0, 64), m=st.integers(0, 64), i=st.integers(0, 64),
           overlaps=st.tuples(st.sampled_from(HOM_OVERLAPS), st.sampled_from(HOM_OVERLAPS)),
           counts=st.tuples(st.integers(1, 3), st.integers(1, 2), st.integers(1, 3)),
           angles=st.lists(st.floats(-7, 7), min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_three_axis_overlap_sweep_is_the_single_point_route(self, n, m, i, overlaps, counts, angles):
        # the overlap axis between two transfer axes; with one or two values
        # it takes only the drawn overlaps
        m = min(m, 64 - n)
        params = {"n": n, "m": m, "i": min(i, n + m), "phi0": angles[0]}
        sweep = {"phi1": {"start": angles[1], "stop": 1.5, "count": counts[0]},
                 "s": {"start": overlaps[0], "stop": overlaps[1], "count": counts[1]},
                 "chi21": {"start": angles[2], "stop": 6.0, "count": counts[2]}}
        assert_sweep_is_the_single_point_route("fock-distribution", params, sweep)

    @given(n=st.integers(0, 64), m=st.integers(0, 64), i=st.integers(0, 64), delta=st.floats(-7, 7),
           overlaps=st.tuples(st.sampled_from(HOM_OVERLAPS), st.sampled_from(HOM_OVERLAPS)),
           count=st.integers(1, 5))
    @example(n=32, m=32, i=32, delta=1.3, overlaps=(1.0 - 5e-9, 1.0), count=3)
    @example(n=32, m=32, i=31, delta=0.9, overlaps=(0.0, 1.0), count=5)
    @example(n=0, m=64, i=20, delta=2.1, overlaps=(0.9, 1.0 - 5e-9), count=4)
    @example(n=63, m=1, i=40, delta=-0.4, overlaps=(1.0, 0.3), count=2)
    @settings(max_examples=25, deadline=None)
    def test_hom_dip_at_fixed_delta_is_the_single_point_route(self, n, m, i, delta, overlaps, count):
        # the generalised HOM dip: the only sweep that hands the count kernel
        # one transfer and a flat array of overlaps
        m = min(m, 64 - n)
        params = {"n": n, "m": m, "i": min(i, n + m), "delta": delta}
        sweep = {"s": {"start": overlaps[0], "stop": overlaps[1], "count": count}}
        assert_sweep_is_the_single_point_route("fock-distribution", params, sweep)

    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("start,stop", [(0.5, 1.5), (0.0, -1.5), (1.0, 1.0 + 4e-12), (1.5, None)])
    def test_overlap_sweep_past_its_domain_stops_at_the_first_bad_point(self, m, start, stop):
        # stop None: a fixed s; at m = 0 no photon mixes, yet the point still fails
        params, sweep = {"n": 3, "m": m}, {"delta": {"start": 0.3, "stop": 1.3, "count": 2}}
        if stop is None:
            params["s"] = start
        else:
            sweep["s"] = {"start": start, "stop": stop, "count": 5}
        config = ExperimentConfig.from_mapping({"kind": "fock-distribution", "params": params, "sweep": sweep})
        with pytest.raises(ParameterDomainError, match=r"exceeds 1; .* at delta=0\.3(, s=|$)"):
            run_experiment(config)
        assert_sweep_is_the_single_point_route("fock-distribution", params, sweep)

    def test_hom_dip_grid_stays_in_its_chunks(self):
        # chunked, the grid's largest blocks are one chunk's stack and terms;
        # building them for the whole grid at once would pass 45 MB here
        config = ExperimentConfig.from_mapping({"kind": "fock-distribution", "params": {"n": 32, "m": 32},
                                                "sweep": {"delta": {"start": 0, "stop": "pi", "count": 33},
                                                          "s": {"start": 0, "stop": 1, "count": 65}}})
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 45e6

    @given(kind=st.sampled_from(["quadratures", "uncertainty-product", "homodyne"]),
           axes=st.lists(st.sampled_from(["r1", "r2", "alpha", "angle"]), min_size=1, max_size=3,
                         unique=True),
           count=st.integers(1, 6), values=st.lists(st.floats(-3, 3), min_size=8, max_size=8),
           stop=st.floats(-3, 3) | st.floats(-800, 800))
    @example(kind="uncertainty-product", axes=["r1", "r2"], count=4, values=[0.5] * 8, stop=-300.0)
    # no mixing (phi1 = phi0 = 0.4): var_q loses its digits and fails positivity at r1 = 20
    @example(kind="quadratures", axes=["r1"], count=5, values=[0.0, -0.0] * 3 + [0.4, 0.0], stop=40.0)
    @example(kind="homodyne", axes=["alpha", "r1"], count=3, values=[-0.0, 0.3] * 4, stop=400.0)
    @settings(max_examples=60, deadline=None)
    def test_other_kinds_sweep_is_the_single_point_route_cell_for_cell(self, kind, axes, count,
                                                                       values, stop):
        # every parameter takes a drawn value and each axis runs from one to
        # `stop`, so squeezing axes may overflow and alpha2_mod turn negative
        if kind == "homodyne":
            names = {"r1": "r1", "r2": "gamma", "alpha": "alpha2_mod", "angle": "phi1"}
            params = dict(zip(["r1", "gamma", "phi0", "phi1", "alpha2_mod"], values))
            params["alpha2_mod"] = abs(params["alpha2_mod"])
        else:
            names = {"r1": "r1", "r2": "r2", "alpha": "alpha1_im", "angle": "chi21"}
            params = dict(zip(["r1", "r2", "alpha1_re", "alpha1_im", "alpha2_re", "alpha2_im",
                               "phi1", "chi21"], values), phi0=0.4)
        sweep = {names[axis]: {"start": params[names[axis]], "stop": stop, "count": count}
                 for axis in axes}
        assert_sweep_is_the_single_point_route(kind, params, sweep)

    def test_failing_sweep_names_the_first_failing_point(self, monkeypatch):
        # the kernel overshoots normalisation where |S11| = |cos(delta/2)| < 1/2
        overshoot_unit_overlap(monkeypatch, lambda entries: np.abs(entries[0]) < 0.5)
        deltas = np.linspace(0.0, 2 * np.pi, 33)
        first = next(delta for delta in deltas if not _single_point_succeeds(32, 32, delta))
        assert first == deltas[11]
        config = ExperimentConfig.from_mapping({
            "kind": "fock-distribution",
            "params": {"n": 32, "m": 32, "i": 32},
            "sweep": {"delta": {"start": 0, "stop": "2*pi", "count": 33}},
        })
        with pytest.raises(InternalConsistencyError) as raised:
            run_experiment(config)
        assert str(raised.value).endswith(f"(unit-overlap closed form) at delta={float(first)!r}")

    def test_grid_of_untouched_transfer_builds_one_transfer(self, monkeypatch):
        # r1 x r2 leaves every stage angle alone: one transfer serves the grid
        shapes = []
        monkeypatch.setattr("storedlight.cli.unitarity_defects",
                            lambda entries: shapes.append(entries.shape) or unitarity_defects(entries))
        params = {"phi0": 0.4, "phi1": 1.1, "chi21": 0.3, "alpha1_re": 0.5, "alpha2_im": -0.2}
        sweep = {"r1": {"start": -1, "stop": 2, "count": 4}, "r2": {"start": 0.5, "stop": -3, "count": 3}}
        assert_sweep_is_the_single_point_route("quadratures", params, sweep)
        # the (4, 1) entries broadcast over the r1 x r2 grid as they are
        assert shapes == [(4, 1)]

    def test_homodyne_sweep_builds_no_transfer(self, monkeypatch):
        # the variance is closed-form in the mixing angles: no transfer entries are read
        def refuse(*args):
            raise AssertionError("a homodyne sweep built a transfer")

        monkeypatch.setattr("storedlight.cli.transfer_entries", refuse)
        monkeypatch.setattr("storedlight.cli.magnetic_phase_entries", refuse)
        text = run_figure(5).to_csv_text()
        assert hashlib.sha256(text.encode()).hexdigest() == FIGURE_DIGESTS[5]

    @pytest.mark.parametrize("kind,params,axis,error", [
        # an infinite stage angle: NaN variance or moments fail the kernel's mask
        ("homodyne", {"alpha2_mod": 1, "phi1": "1e309"}, ("gamma", 0, 1),
         "stage angle phi must be finite, got inf at gamma=0.0"),
        ("quadratures", {"phi1": 0.7, "chi21": "1e309"}, ("r1", 0, 1),
         "stage angle chi2 must be finite, got inf at r1=0.0"),
        # finite variances whose product overflows, first at r1 = 150
        ("uncertainty-product", {"r2": -300, "phi1": 0.7}, ("r1", 0, 300),
         "uncertainty product of var_q=7.829327050690675e+259 and var_p=5.681437649836067e+129 "
         "overflows at r1=150.0"),
    ], ids=["homodyne-angle", "quadratures-phase", "uncertainty-overflow"])
    def test_kernel_masks_stop_at_the_first_failing_point(self, kind, params, axis, error, tmp_path, capsys):
        name, start, stop = axis
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"kind": kind, "params": params,
                                           "sweep": {name: {"start": start, "stop": stop, "count": 3}}}))
        assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "a.csv")]) == 1
        assert capsys.readouterr().err == f"error: ParameterDomainError: {error}\n"

    def test_the_product_alone_overflows_in_the_uncertainty_sweep(self):
        # the quadratures at the same points are finite and pass
        config = ExperimentConfig.from_mapping({"kind": "quadratures", "params": {"r2": -300, "phi1": 0.7},
                                                "sweep": {"r1": {"start": 0, "stop": 300, "count": 3}}})
        dataset = run_experiment(config)
        assert np.isfinite(dataset.values).all()
        products = [q * p for q, p in zip(dataset.column("var_q").tolist(), dataset.column("var_p").tolist())]
        assert products[1:] == [math.inf, math.inf]

    def test_failing_grid_names_a_point_past_the_leading_axis_start(self, monkeypatch):
        # at phi0 = pi/4, |S11|^2 = (1 + sin 2phi1 cos chi21)/2 falls below
        # 1/4, where the kernel overshoots, first at phi1 = pi/8, chi21 = pi
        overshoot_unit_overlap(monkeypatch, lambda entries: np.abs(entries[0]) < 0.5)
        params = {"n": 3, "m": 2, "i": 2, "phi0": "pi/4"}
        sweep = {"phi1": {"start": 0, "stop": "pi/2", "count": 9}, "chi21": {"start": 0, "stop": "2*pi", "count": 7}}
        assert_sweep_is_the_single_point_route("fock-distribution", params, sweep)
        config = ExperimentConfig.from_mapping({"kind": "fock-distribution", "params": params, "sweep": sweep})
        with pytest.raises(InternalConsistencyError) as raised:
            run_experiment(config)
        phi1, chi21 = float(np.linspace(0, np.pi / 2, 9)[2]), float(np.linspace(0, 2 * np.pi, 7)[3])
        assert str(raised.value).endswith(f"(unit-overlap closed form) at phi1={phi1!r}, chi21={chi21!r}")

    def test_failing_sweep_of_any_kind_names_its_point(self):
        config = ExperimentConfig.from_mapping({
            "kind": "homodyne",
            "params": {"r1": 0.3},
            "sweep": {"gamma": {"start": 0, "stop": 1, "count": 2},
                      "alpha2_mod": {"start": 1, "stop": -1, "count": 4}},
        })
        first = float(np.linspace(1, -1, 4)[2])
        with pytest.raises(ParameterDomainError) as raised:
            run_experiment(config)
        assert str(raised.value) == f"alpha2_mod must be >= 0, got {first!r} at gamma=0.0, alpha2_mod={first!r}"

    def test_sweep_errors_keep_their_type(self):
        for params, error in (({"n": 40, "m": 40}, CapacityError),
                              ({"n": 1, "m": 1, "i": 3}, ExperimentConfigError),
                              ({"n": 1, "m": 1, "s": 1.5}, ParameterDomainError)):
            config = ExperimentConfig.from_mapping({
                "kind": "fock-distribution", "params": params,
                "sweep": {"delta": {"start": 0, "stop": 1, "count": 3}},
            })
            with pytest.raises(error, match=r"at delta=0\.0$"):
                run_experiment(config)

    def test_single_rejects_sweep_axes(self):
        config = ExperimentConfig.from_mapping({
            "kind": "homodyne", "params": {"alpha2_mod": 1},
            "sweep": {"gamma": {"start": 0, "stop": 1, "count": 2}},
        })
        with pytest.raises(ExperimentConfigError, match="^run_single does not accept sweep axes$"):
            run_single(config)

    @pytest.mark.parametrize("subcommand", ["eval", "sweep"])
    def test_a_bad_axis_is_reported_as_the_configuration_is_read(self, subcommand, tmp_path, capsys):
        # before run_single refuses sweep axes, and before sweep asks for an output path
        (tmp_path / "run.json").write_text('{"kind": "homodyne"}')
        command = (["eval", "--kind", "homodyne"] if subcommand == "eval"
                   else ["sweep", "--config", str(tmp_path / "run.json")])
        assert main([*command, "--set", "alpha2_mod=1", "--set", "sweep.gamma.start=0",
                     "--set", "sweep.gamma.stop=1", "--set", "sweep.gamma.count=0"]) == 2
        assert capsys.readouterr().err == "error: ExperimentConfigError: axis 'gamma' needs count >= 1, got 0\n"

    def test_single_full_distribution(self):
        config = ExperimentConfig.from_mapping(
            {"kind": "fock-distribution", "params": {"n": 1, "m": 1, "delta": "pi/2"}})
        dataset = run_single(config)
        assert dataset.columns == ("i", "probability")
        assert np.allclose([row[1] for row in dataset.rows], [0.5, 0.0, 0.5], atol=1e-12)

    def test_single_with_explicit_target(self):
        config = ExperimentConfig.from_mapping(
            {"kind": "fock-distribution", "params": {"n": 1, "m": 1, "i": 1, "delta": "pi/3"}})
        dataset = run_single(config)
        assert dataset.columns == ("probability",)
        assert dataset.rows[0][0] == pytest.approx(0.25, abs=1e-12)

    def test_partial_overlap_uses_the_closed_form(self):
        config = ExperimentConfig.from_mapping({
            "kind": "fock-distribution",
            "params": {"n": 1, "m": 1, "s": 0.0, "delta": "pi/2"},
        })
        dataset = run_single(config)
        # orthogonal packets cannot interfere: the pair distribution is binomial
        assert np.allclose([row[1] for row in dataset.rows], [0.25, 0.5, 0.25], atol=1e-10)

    def test_figure_id_gate(self):
        with pytest.raises(ExperimentConfigError):
            run_figure(0)

    def test_figure_grid_shape(self):
        dataset = run_figure(5)
        assert dataset.columns == ("phi1", "gamma", "var_k")
        assert len(dataset.rows) == 65 * 65
        # row-major: the second axis varies fastest
        assert dataset.rows[0][0] == dataset.rows[1][0]
        assert dataset.rows[0][1] != dataset.rows[1][1]
        # any oscillating row completes two variance periods per probe-phase turn
        grid = np.array([row[2] for row in dataset.rows]).reshape(65, 65)
        spectrum = np.abs(np.fft.rfft(grid[48, :64]))
        assert np.argmax(spectrum[1:]) + 1 == 2


def _single_point_succeeds(n, m, delta):
    try:
        release_distribution(FockInput(n, m), magnetic_phase_matrix(delta))
    except InternalConsistencyError:
        return False
    return True


# float cells, with the edge cases of "%.12g" drawn often
CSV_FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, math.inf, -math.inf, math.nan, 1e308, -1e308]),
                       st.floats(width=64))


def per_cell_csv(columns, values) -> str:
    """The formatter before grids formatted their axis values once: one
    "%.12g" template cell per CSV cell."""
    template = ",".join(["%.12g"] * len(columns)) + "\n"
    return ",".join(columns) + "\n" + template * len(values) % tuple(values.ravel().tolist())


class TestDataset:
    @given(data=st.data(), counts=st.lists(st.integers(1, 9), min_size=1, max_size=3),
           value_columns=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_grid_csv_is_the_per_cell_template(self, data, counts, value_columns, seed):
        axes = [data.draw(st.lists(CSV_FLOATS, min_size=count, max_size=count)) for count in counts]
        grid = [coords.ravel() for coords in np.meshgrid(*map(np.array, axes), indexing="ij")]
        pool = data.draw(st.lists(CSV_FLOATS, min_size=1, max_size=12))
        cells = np.random.default_rng(seed).choice(pool, (len(grid[0]), value_columns))
        values = np.column_stack([*grid, cells])
        columns = tuple(f"axis{k}" for k in range(len(counts))) + tuple(f"v{k}" for k in range(value_columns))
        text = Dataset(columns, values, tuple(counts)).to_csv_text()
        assert text == per_cell_csv(columns, values)

    def test_full_distribution_csv_is_the_per_cell_template(self, capsys):
        angles = np.random.default_rng(13).uniform(-7, 7, 6).tolist()
        names = ("phi0", "chi20", "chi30", "phi1", "chi21", "chi31")
        transfer = build_transfer_matrix(StageAngles(*angles[:3]), StageAngles(*angles[3:]))
        for total in range(MAX_TOTAL_PHOTONS + 1):
            n = total // 3
            assert main(["eval", "--kind", "fock-distribution", "--set", f"n={n}", "--set", f"m={total - n}",
                         *[arg for name, angle in zip(names, angles) for arg in ("--set", f"{name}={angle!r}")]]) == 0
            probabilities = release_distribution(FockInput(n, total - n), transfer).probabilities
            values = np.column_stack((np.arange(total + 1), probabilities))
            assert capsys.readouterr().out == per_cell_csv(("i", "probability"), values), total

    def test_hand_built_count_column_prints_its_own_values(self):
        values = np.array([(0, 0.25), (2, 0.5), (5, 1 / 3)])
        text = Dataset(("i", "probability"), values).to_csv_text()
        assert text == per_cell_csv(("i", "probability"), values) == "i,probability\n0,0.25\n2,0.5\n5,0.333333333333\n"

    def test_full_distribution_values_are_read_only(self):
        # its CSV takes the counts 0..N as given, so they cannot be changed
        dataset = run_single(ExperimentConfig.from_mapping(
            {"kind": "fock-distribution", "params": {"n": 2, "m": 1, "delta": 0.4}}))
        assert dataset.values[:, 0].tolist() == [0, 1, 2, 3] and not dataset.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dataset.values[1, 0] = 7.0

    def test_csv_cells(self):
        dataset = Dataset(columns=("i", "x"), values=np.array([
            (0, -0.0), (64, 5e-324), (3, 1.7976931348623157e308), (1, 1 / 3), (2, -2.5e-300),
            (5, 123456789012345.0), (6, 1e16)]))
        assert dataset.to_csv_text() == (
            "i,x\n0,-0\n64,4.94065645841e-324\n3,1.79769313486e+308\n1,0.333333333333\n"
            "2,-2.5e-300\n5,1.23456789012e+14\n6,1e+16\n")


class TestMainEntry:
    def test_eval_to_stdout(self, capsys):
        code = main(["eval", "--kind", "fock-distribution",
                     "--set", "n=1", "--set", "m=1", "--set", "delta=pi/3", "--set", "i=1"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines()[0] == "probability"
        assert float(captured.out.splitlines()[1]) == pytest.approx(0.25, abs=1e-12)

    def test_sweep_round_trip(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "kind": "quadratures",
            "params": {"r1": 1.0, "r2": 0.5, "phi0": "pi/4"},
            "sweep": {"phi1": {"start": 0, "stop": "pi/2", "count": 3}},
        }))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", str(config_path), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert lines[0] == "phi1,mean_q,mean_p,var_q,var_p"
        assert len(lines) == 4

    def test_override_changes_the_result(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "kind": "fock-distribution",
            "params": {"n": 1, "m": 1, "i": 1},
            "sweep": {"delta": {"start": 0, "stop": 1, "count": 2}},
            "out": str(tmp_path / "c.csv"),
        }))
        assert main(["sweep", "--config", str(config_path),
                     "--set", "sweep.delta.count=4"]) == 0
        assert len((tmp_path / "c.csv").read_text().splitlines()) == 5

    @pytest.mark.parametrize("command", [["figure", "--id", "1", "--out", "f.csv"],
                                         ["sweep", "--config", "run.json", "--out", "f.csv"]])
    def test_workers_is_not_an_option(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("run.json").write_text(json.dumps({"kind": "homodyne", "params": {"alpha2_mod": 1}}))
        assert main([*command, "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ExperimentConfigError:") and len(err.splitlines()) == 1
        assert not Path("f.csv").exists()
        with pytest.raises(SystemExit) as raised:
            main([command[0], "--help"])
        assert raised.value.code == 0
        help_text = capsys.readouterr().out
        assert "--out" in help_text and "--workers" not in help_text

    @pytest.mark.parametrize("text,message", [
        (None, "cannot read config: "),
        ("{kind", "config is not valid JSON: "),
        ("[]", "configuration must be a mapping"),
        ('{"kind": "homodyne", "params": {"alpha2_mod": 1}}', "no output path: give out in the config or --out"),
    ])
    def test_bad_config_files_exit_2(self, text, message, tmp_path, capsys):
        path = tmp_path / "run.json"
        if text is not None:
            path.write_text(text)
        assert main(["sweep", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: ExperimentConfigError: {message}")

    @pytest.mark.parametrize("content", [
        b"\xff\xfe" + '{"kind": "homodyne", "params": {"alpha2_mod": 1}}'.encode("utf-16-le"),
        b"[" * 200_000,
        b'{"kind": "homodyne", "params": {"alpha2_mod": 1' + b"0" * 5000 + b"}}",
    ], ids=["utf-16", "deep-nesting", "long-integer"])
    def test_undecodable_config_files_exit_2(self, content, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(content)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "a.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ExperimentConfigError: config is not valid JSON: ")
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("runner,command", [
        ("run_figure", ["figure", "--id", "2"]),
        ("run_experiment", ["sweep", "--config", "run.json"]),
        ("run_single", ["eval", "--kind", "homodyne", "--set", "alpha2_mod=1"]),
    ])
    def test_out_of_memory_exits_1(self, runner, command, tmp_path, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (1, 100000, 100000)")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, runner, exhausted)
        Path("run.json").write_text(json.dumps({"kind": "homodyne", "params": {"alpha2_mod": 1}}))
        assert main([*command, "--out", "a.csv"]) == 1
        assert capsys.readouterr() == ("", "error: MemoryError: Unable to allocate 74.5 GiB for an array "
                                           "with shape (1, 100000, 100000)\n")
        assert not Path("a.csv").exists()

    @pytest.mark.parametrize("command", [
        ["figure", "--id", "2"],
        ["sweep", "--config", "run.json"],
        ["eval", "--kind", "homodyne", "--set", "alpha2_mod=1"],
    ])
    def test_unwritable_output_exits_1(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("run.json").write_text(json.dumps({"kind": "homodyne", "params": {"alpha2_mod": 1}}))
        assert main([*command, "--out", str(tmp_path / "missing" / "a.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: FileNotFoundError: ")

    @pytest.mark.parametrize("command", [
        ["figure", "--id", "5"],
        ["sweep", "--config", "run.json"],
        ["eval", "--kind", "homodyne", "--set", "alpha2_mod=1"],
    ])
    def test_empty_out_exits_2_before_evaluating(self, command, tmp_path, monkeypatch, capsys):
        def evaluated(*args):
            raise AssertionError("the command evaluated")

        monkeypatch.chdir(tmp_path)
        for runner in ("run_figure", "run_experiment", "run_single"):
            monkeypatch.setattr(cli, runner, evaluated)
        # the config's own out is not a fallback for an empty --out
        Path("run.json").write_text(json.dumps({"kind": "homodyne", "params": {"alpha2_mod": 1}, "out": "c.csv"}))
        assert main([*command, "--out", ""]) == 2
        assert capsys.readouterr() == ("", "error: ExperimentConfigError: out must be a path string\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.json"]

    def test_eval_writes_the_out_key(self, tmp_path, capsys):
        command = ["eval", "--kind", "fock-distribution", "--set", "n=1", "--set", "m=1"]
        assert main(command) == 0
        expected = capsys.readouterr().out
        out = tmp_path / "x.csv"
        assert main([*command, "--set", f"out={out}"]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_text() == expected

    @pytest.mark.parametrize("phases", [
        ["chi20=-1e308", "chi21=1e308"], ["chi20=0.4", "chi30=1e308", "chi21=-0.7", "chi31=-1e308"],
        ["chi20=-1.7e308", "chi30=1.5e308", "chi21=1.7e308", "chi31=-1.5e308"],
    ])
    def test_overflowing_control_phases_exit_0(self, phases, capsys):
        # chi21 - chi20 or chi31 - chi30 overflows between finite phases
        sets = [arg for setting in ["phi0=0.3", "phi1=0.9", *phases] for arg in ("--set", setting)]
        for kind in ("fock-distribution", "quadratures", "uncertainty-product"):
            extra = ["--set", "n=2", "--set", "m=1"] if kind == "fock-distribution" else []
            assert main(["eval", "--kind", kind, *sets, *extra]) == 0
            captured = capsys.readouterr()
            assert captured.err == "" and "nan" not in captured.out
        params = dict(setting.split("=") for setting in phases)
        late = params.pop("chi21")
        sweep = {"chi21": {"start": late, "stop": float(late) / 2, "count": 3}}
        assert_sweep_is_the_single_point_route("quadratures", {"phi0": 0.3, "phi1": 0.9, "r1": 0.5, **params}, sweep)

    @pytest.mark.parametrize("phi0,phi1", [("-1e308", "1e308"), ("0.3", "1e308"), ("-9e307", "9e307")])
    def test_overflowing_mixing_angles_exit_0(self, phi0, phi1, capsys):
        # phi1 - phi0, or twice it, overflows between finite angles
        assert main(["eval", "--kind", "homodyne", "--set", "alpha2_mod=1", "--set", f"phi0={phi0}",
                     "--set", f"phi1={phi1}"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "nan" not in captured.out
        params = {"r1": 0.4, "alpha2_mod": 2, "phi0": phi0, "phi1": phi1}
        sweep = {"gamma": {"start": 0, "stop": "pi", "count": 5}}
        assert_sweep_is_the_single_point_route("homodyne", params, sweep)

    def test_large_mixing_angles_keep_their_digits(self, capsys):
        # phi1 - phi0 rounds phi0 = 0.3 away; homodyne_oracle gives 4.16256465314
        assert main(["eval", "--kind", "homodyne", "--set", "r1=0.4", "--set", "alpha2_mod=2", "--set", "gamma=0.3",
                     "--set", "phi0=0.3", "--set", "phi1=1e17"]) == 0
        assert capsys.readouterr().out == "var_k\n4.16256465314\n"
        params = {"r1": 0.4, "alpha2_mod": 2, "gamma": 0.3, "phi0": 0.3}
        sweep = {"phi1": {"start": "1e8", "stop": "1e300", "count": 5}}
        assert_sweep_is_the_single_point_route("homodyne", params, sweep)

    def test_large_control_phases_keep_their_digits(self, capsys):
        # chi21 - chi20 rounds chi20 = 0.3 away; a 60-digit product of
        # phasors gives 0.96098245451466
        assert main(["eval", "--kind", "fock-distribution", "--set", "n=1", "--set", "m=1", "--set", "i=1",
                     "--set", "phi0=0.4", "--set", "chi20=0.3", "--set", "phi1=1.1", "--set", "chi21=1e17"]) == 0
        assert capsys.readouterr().out == "probability\n0.960982454515\n"
        params = {"n": 1, "m": 1, "i": 1, "phi0": 0.4, "chi20": 0.3, "phi1": 1.1}
        sweep = {"chi21": {"start": "1e8", "stop": "1e300", "count": 5}}
        assert_sweep_is_the_single_point_route("fock-distribution", params, sweep)

    def test_config_errors_exit_2(self, capsys):
        assert main(["eval", "--kind", "bogus"]) == 2
        assert main(["eval", "--kind", "fock-distribution", "--set", "n=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ExperimentConfigError:")
        assert len(err.splitlines()) == 2

    def test_oracle_cutoff_is_no_longer_a_parameter(self, capsys):
        assert main(["eval", "--kind", "fock-distribution", "--set", "n=1", "--set", "m=1",
                     "--set", "s=0.5", "--set", "cutoff=8"]) == 2
        assert capsys.readouterr().err.startswith("error: ExperimentConfigError:")

    def test_partial_overlap_at_sixteen_photon_pairs(self, capsys):
        code = main(["eval", "--kind", "fock-distribution", "--set", "n=16", "--set", "m=16",
                     "--set", "s=0.5", "--set", "delta=1.3"])
        assert code == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        counts = np.array([int(i) for i, _ in rows])
        probs = np.array([float(p) for _, p in rows])
        assert counts.tolist() == list(range(33))
        fock_input = FockInput(16, 16, GramMatrix(0.5))
        transfer = magnetic_phase_matrix(1.3)
        mean = float(np.dot(counts, probs))
        variance = float(np.dot(counts ** 2, probs)) - mean ** 2
        # the CSV carries 12 significant digits per probability
        assert mean == pytest.approx(mean_release_count(fock_input, transfer), abs=1e-9)
        assert variance == pytest.approx(release_variance(fock_input, transfer), abs=1e-8)

    @pytest.mark.parametrize("overlap", [[], ["--set", "s=0.9"], ["--set", "s=0.99"]])
    def test_thirty_two_photon_pairs(self, overlap, capsys):
        # these settings broke the normalisation guard under the binomial sum
        code = main(["eval", "--kind", "fock-distribution", "--set", "n=32", "--set", "m=32",
                     "--set", "i=32", "--set", "delta=1.3", *overlap])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert 0.0 < float(lines[1]) < 1.0

    @pytest.mark.parametrize("kind,settings,error", [
        ("quadratures", ["r1=1000"], "ParameterDomainError: released quadrature moments of "
                                     "SqueezedInput(alpha1=0j, alpha2=0j, r1=1000.0, r2=0.0) overflow"),
        ("homodyne", ["r1=400", "alpha2_mod=1", "phi1=0.3"],
         "ParameterDomainError: count-difference variance of HomodyneConfig(r1=400.0, alpha2_mod=1.0,"),
        ("uncertainty-product", ["r1=300", "r2=-300", "phi1=0.7"],
         "ParameterDomainError: uncertainty product of var_q="),
    ])
    def test_overflow_is_a_one_line_error(self, kind, settings, error, tmp_path, capsys):
        sets = [arg for setting in settings for arg in ("--set", setting)]
        assert main(["eval", "--kind", kind, *sets]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {error}") and len(captured.err.splitlines()) == 1
        # the same point as the last of a sweep: its error, with the point appended
        name, value = settings[0].split("=")
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "kind": kind, "params": dict(setting.split("=") for setting in settings[1:]),
            "sweep": {name: {"start": 0, "stop": value, "count": 2}},
        }))
        assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "a.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}") and len(err.splitlines()) == 1
        assert err.rstrip().endswith(f" at {name}={float(value)!r}")

    @pytest.mark.parametrize("r2", ["400", "1000", "-1000"])
    def test_unreached_channel_may_overflow(self, r2, capsys):
        # at the default angles channel 2 never reaches channel 1: its weight
        # is exactly zero, so e^(|r2|) overflowing past 709.78 is harmless
        assert main(["eval", "--kind", "quadratures", "--set", f"r2={r2}"]) == 0
        assert capsys.readouterr().out.splitlines() == ["mean_q,mean_p,var_q,var_p", "0,0,0.5,0.5"]
        # a reached channel still overflows
        assert main(["eval", "--kind", "quadratures", "--set", f"r2={r2}", "--set", "phi1=0.7"]) == 1
        assert "overflow" in capsys.readouterr().err

    def test_overflowing_channel_sweep_is_the_single_point_route(self):
        sweep = {"r2": {"start": -1000, "stop": 1000, "count": 5}}
        unreached = {"r1": 0.3, "alpha2_re": 1.5}
        assert_sweep_is_the_single_point_route("quadratures", unreached, sweep)
        values = run_experiment(ExperimentConfig.from_mapping(
            {"kind": "quadratures", "params": unreached, "sweep": sweep})).values
        assert (values[:, 1:] == values[2, 1:]).all()   # r2 = 0 is the middle row
        # a reached channel: the sweep raises the first overflowing point's error
        assert_sweep_is_the_single_point_route("quadratures", {"phi1": 0.7}, sweep)

    @pytest.mark.parametrize("r1,var_q", [("10", "1.03057681122e-09"), ("18", "1.15976141512e-16"),
                                          ("40", "9.02425693923e-36")])
    def test_strong_squeezing_keeps_its_digits(self, r1, var_q, capsys):
        # var_q = e^(-2 r1)/2, rounded from 40-digit mpmath
        assert main(["eval", "--kind", "quadratures", "--set", f"r1={r1}"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[2] == var_q

    def test_squeezed_axis_homodyne_keeps_its_digits(self, capsys):
        # |alpha2|^2 e^(-20) plus the direct term, rounded from 50-digit mpmath
        assert main(["eval", "--kind", "homodyne", "--set", "r1=10", "--set", "alpha2_mod=1",
                     "--set", "phi1=pi/4", "--set", "probe=classical"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "2.06115373276e-09"

    @pytest.mark.parametrize("figure,digest", list(FIGURE_DIGESTS.items()))
    def test_figure_digests(self, figure, digest, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["figure", "--id", str(figure), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("command,digest", [
        (["eval", "--kind", "fock-distribution", "--set", "n=32", "--set", "m=32", "--set", "delta=1.3"],
         "16c1344ed716fe42e63075ddfbecbd15097471bb3f5a15989d5ee9ab6147db32"),
        (["eval", "--kind", "fock-distribution", "--set", "n=32", "--set", "m=32", "--set", "delta=1.3",
          "--set", "s=0.9"], "5e60e47f17a54e15020e0c722ed85ec992d864e75c9376d51d107fcb304ae702"),
        (["sweep", "--set", "kind=quadratures", "--set", "r1=0.8", "--set", "r2=-0.3",
          "--set", "alpha1_re=1.5", "--set", "alpha1_im=-0.5", "--set", "alpha2_re=-0.25",
          "--set", "alpha2_im=2.0", "--set", "phi0=pi/5", "--set", "chi20=0.4",
          "--set", "sweep.phi1.start=0", "--set", "sweep.phi1.stop=pi/2", "--set", "sweep.phi1.count=9",
          "--set", "sweep.chi31.start=0", "--set", "sweep.chi31.stop=2*pi", "--set", "sweep.chi31.count=9"],
         "bced83d40088461285244d7b15b0281caefe1080868f538a62c4a0bf963ebb95"),
        (["sweep", "--set", "kind=homodyne", "--set", "r1=0.7", "--set", "phi0=pi/8", "--set", "probe=classical",
          "--set", "sweep.alpha2_mod.start=0", "--set", "sweep.alpha2_mod.stop=10",
          "--set", "sweep.alpha2_mod.count=6", "--set", "sweep.gamma.start=0",
          "--set", "sweep.gamma.stop=2*pi", "--set", "sweep.gamma.count=13"],
         "b88c612474d87741b59db4cad2d3192ec05519c74590ced38d1f1c3056f0fa60"),
        (["sweep", "--set", "kind=quadratures", "--set", "r2=-0.3", "--set", "alpha1_re=1.5",
          "--set", "alpha1_im=-0.5", "--set", "alpha2_re=-0.25", "--set", "alpha2_im=2.0",
          "--set", "phi0=pi/5", "--set", "chi20=0.4",
          "--set", "sweep.phi1.start=0", "--set", "sweep.phi1.stop=pi/2", "--set", "sweep.phi1.count=5",
          "--set", "sweep.r1.start=-1.5", "--set", "sweep.r1.stop=2", "--set", "sweep.r1.count=3",
          "--set", "sweep.chi31.start=0", "--set", "sweep.chi31.stop=2*pi", "--set", "sweep.chi31.count=7"],
         "02b7183be728af8669a7444972db8c219069420c340fbeca6071707baf5ae481"),
        *[(["sweep", "--set", "kind=fock-distribution", "--set", f"n={n}", "--set", f"m={n}", *HOM_DIP_AXES], digest)
          for n, digest in HOM_DIP_DIGESTS.items()],
    ], ids=["eval-unit-overlap", "eval-partial-overlap", "quadratures-sweep", "homodyne-classical-sweep",
            "quadratures-three-axis-sweep", *[f"hom-dip-{n}" for n in HOM_DIP_DIGESTS]])
    def test_output_digests(self, command, digest, tmp_path):
        out = tmp_path / "out.csv"
        if command[0] == "sweep":
            config = tmp_path / "run.json"
            config.write_text("{}")
            command = [*command, "--config", str(config)]
        assert main([*command, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @staticmethod
    def run_python(probe):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60, check=True).stdout

    def test_import_does_not_load_scipy(self):
        probe = ("import sys, storedlight.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert self.run_python(probe).strip() == "[]"

    def test_oracles_run_without_scipy(self):
        # a None entry in sys.modules makes every import of scipy fail
        probe = "\n".join([
            "import sys",
            "sys.modules['scipy'] = None",
            "from storedlight import *",
            "transfer = magnetic_phase_matrix(1.3)",
            "basis = ModeBasis(0.6, cutoff=4)",
            "dist = oracle_distribution(build_fock_input(2, 2, basis),",
            "                           released_number_operator(transfer, basis))",
            "closed = release_distribution(FockInput(2, 2, GramMatrix(0.6)), transfer)",
            "config = HomodyneConfig(0.3, 1.0, 0.4, StageAngles(0.2, 0, 0), StageAngles(1.1, 0, 0))",
            "print(max(abs(dist.probabilities - closed.probabilities)),",
            "      abs(homodyne_oracle(config) - general_variance(config)))",
        ])
        gaps = [float(gap) for gap in self.run_python(probe).split()]
        assert len(gaps) == 2 and max(gaps) < 1e-10

    def test_failing_row_exits_1_with_the_route(self, monkeypatch, capsys):
        monkeypatch.setattr(fock_interference, "_unit_overlap_stack", lambda n, m, entries, lowest=0:
                            np.full((m + 1 - lowest, entries.shape[1], n + m + 1), 1.5 / (n + m + 1)))
        assert main(["eval", "--kind", "fock-distribution", "--set", "n=3", "--set", "m=2",
                     "--set", "delta=1.3"]) == 1
        assert capsys.readouterr().err == ("error: InternalConsistencyError: probabilities sum to "
                                           "1.500000000000, expected 1 within 1.0e-10 (unit-overlap closed form)\n")

    def test_runtime_errors_exit_1(self, capsys):
        code = main(["eval", "--kind", "fock-distribution",
                     "--set", "n=40", "--set", "m=40"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: CapacityError:")

    def test_figure_subcommand(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["figure", "--id", "5", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "phi1,gamma,var_k"
