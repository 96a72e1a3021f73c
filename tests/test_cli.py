import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from storedlight import (
    ExperimentConfigError,
    FockInput,
    GramMatrix,
    magnetic_phase_matrix,
    mean_release_count,
    release_variance,
)
from storedlight.cli import (
    ExperimentConfig,
    apply_overrides,
    main,
    parse_number_expression,
    run_experiment,
    run_figure,
    run_single,
)


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

    def test_axis_needs_all_three_fields(self):
        with pytest.raises(ExperimentConfigError):
            ExperimentConfig.from_mapping({
                "kind": "fock-distribution",
                "params": {"n": 1, "m": 1},
                "sweep": {"delta": {"start": 0, "count": 5}},
            })


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

    def test_worker_pool_is_deterministic(self):
        config = ExperimentConfig.from_mapping({
            "kind": "homodyne",
            "params": {"r1": 0.4, "alpha2_mod": 2.0, "phi0": "pi/8"},
            "sweep": {"phi1": {"start": 0, "stop": "pi/2", "count": 5},
                      "gamma": {"start": 0, "stop": "2*pi", "count": 3}},
        })
        serial = run_experiment(config, workers=1)
        pooled = run_experiment(config, workers=2)
        assert serial.to_csv_text() == pooled.to_csv_text()

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

    def test_import_does_not_load_scipy(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = ("import sys, storedlight.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=60, check=True)
        assert result.stdout.strip() == "[]"

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
