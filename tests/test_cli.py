import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import consensuslab
from consensuslab.cli import list_tasks, main
from consensuslab.errors import ScenarioError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_scenario(name, tmp_path, out_name="out"):
    """Copy a golden scenario next to its schedule and run it into tmp."""
    src = SCENARIOS / f"{name}.json"
    dst = tmp_path / f"{name}.json"
    shutil.copy(src, dst)
    out_dir = tmp_path / out_name
    code = main(["run", str(dst), "--output-dir", str(out_dir)])
    return code, out_dir


def test_k2_golden_trajectory_row(tmp_path):
    code, out = run_scenario("k2_constant", tmp_path)
    assert code == 0
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    at_one = rows[np.argmin(np.abs(rows[:, 0] - 1.0))]
    assert abs(at_one[0] - 1.0) < 1e-9
    assert abs(at_one[1] - 0.135335) < 1e-5
    assert np.abs(at_one[1:] - [np.exp(-2.0), -np.exp(-2.0)]).max() < 1e-9
    rate = json.loads((out / "rate.json").read_text())
    assert rate["alpha"] == pytest.approx(2.0, abs=1e-6)
    assert rate["beta"] == pytest.approx(1.0, abs=1e-6)


def test_five_node_reconstruction_report(tmp_path):
    code, out = run_scenario("five_node_reconstruct", tmp_path)
    assert code == 0
    report = json.loads((out / "reconstruction.json").read_text())
    assert report["error_vs_truth"] < 1e-5
    assert report["lambda_min"] > 1e-8
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "connected"
    assert (out / "edge_signals.csv").is_file()


def test_alternating_reports(tmp_path):
    code, out = run_scenario("alternating_triangle", tmp_path)
    assert code == 0
    rate = json.loads((out / "rate.json").read_text())
    assert rate["converged"] and rate["alpha"] > 0.0
    bounds = json.loads((out / "bounds.json").read_text())
    assert bounds["observable"] and bounds["alpha1"] > 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "trajectory.csv" in manifest["artifacts"]


def test_same_seed_byte_identical(tmp_path):
    _, out1 = run_scenario("robust_noise", tmp_path, out_name="out1")
    _, out2 = run_scenario("robust_noise", tmp_path, out_name="out2")
    assert (out1 / "robustness.json").read_bytes() == (out2 / "robustness.json").read_bytes()
    _, t1 = run_scenario("k2_constant", tmp_path, out_name="t1")
    _, t2 = run_scenario("k2_constant", tmp_path, out_name="t2")
    assert (t1 / "trajectory.csv").read_bytes() == (t2 / "trajectory.csv").read_bytes()


def test_robustness_c_bound_is_the_measured_supremum(tmp_path):
    code, out = run_scenario("robust_noise", tmp_path)
    assert code == 0
    report = json.loads((out / "robustness.json").read_text())
    assert report["C_bound"] == report["sup_error"] == max(report["errors"])


def test_package_exports_exactly_the_submodule_names():
    from consensuslab import analysis, dynamics, errors, graph, observability

    exported = {name for name, value in vars(consensuslab).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    expected = set().union(*(m.__all__ for m in (graph, dynamics, observability, analysis)))
    expected |= {name for name, value in vars(errors).items()
                 if isinstance(value, type) and issubclass(value, Exception)}
    assert exported == expected
    assert len(exported) == 50


def _valid_scenario():
    return {
        "schedule": {"nodes": 3, "periodic": True, "period": 2.0, "segments": [
            {"t0": 0.0, "t1": 1.0, "edges": [{"i": 1, "j": 2, "w": 1.0}]},
            {"t0": 1.0, "t1": 2.0, "edges": [{"i": 2, "j": 3, "w": 1.0}]}]},
        "initial_state": [1.0, 0.0, -1.0],
        "noise": {"kind": "windowed-random", "zeta": 1.0, "B0": 1.0, "seed": 3},
        "output_dir": "bad_out",
        "tasks": [
            {"task": "simulate", "t_end": 4.0, "sample_dt": 0.1},
            {"task": "connectivity", "delta": 1.0, "T": 2.0, "stride": 0.25},
            {"task": "bounds", "delta": 2.0, "stride": 0.25},
            {"task": "rate", "skip_time": 0.0, "fit_dt": 2.0},
            {"task": "robustness", "t_end": 4.0, "sample_dt": 0.1},
        ],
    }


def _set(keys, value):
    def mutate(data):
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return mutate


def _drop_nodes(data):
    del data["schedule"]["nodes"]


def _table_noise(breakpoints, values):
    return {"kind": "table", "zeta": 1.0, "B0": 1.0, "breakpoints": breakpoints, "values": values}


def _numeric_schedule_file(data):
    del data["schedule"]
    data["schedule_file"] = 5


# (label, mutation of _valid_scenario(), fragment of the error message)
MALFORMED = [
    ("missing nodes", _drop_nodes, "nodes"),
    ("negative t_end", _set(["tasks", 0, "t_end"], -5.0), "'t_end' must be positive"),
    ("zero sample_dt", _set(["tasks", 0, "sample_dt"], 0.0), "'sample_dt' must be positive"),
    ("boolean t_end", _set(["tasks", 0, "t_end"], True), "'t_end' must be a finite number"),
    ("infinite t_end", _set(["tasks", 0, "t_end"], float("inf")), "finite number"),
    ("negative delta", _set(["tasks", 1, "delta"], -0.1), "'delta' must be positive"),
    ("zero T", _set(["tasks", 1, "T"], 0), "'T' must be positive"),
    ("string stride", _set(["tasks", 1, "stride"], "0.25"), "'stride' must be a finite number"),
    ("negative stride", _set(["tasks", 2, "stride"], -0.25), "'stride' must be positive"),
    ("zero fit_dt", _set(["tasks", 3, "fit_dt"], 0.0), "'fit_dt' must be positive"),
    ("null skip_time", _set(["tasks", 3, "skip_time"], None), "'skip_time' must be a finite"),
    ("negative robustness t_end", _set(["tasks", 4, "t_end"], -1.0), "must be positive"),
    ("boolean zeta", _set(["noise", "zeta"], True), "'zeta'"),
    ("string B0", _set(["noise", "B0"], "1.0"), "'B0'"),
    ("nan weight", _set(["schedule", "segments", 1, "edges", 0, "w"], float("nan")),
     "finite"),
    ("string weight", _set(["schedule", "segments", 0, "edges", 0, "w"], "abc"),
     "weight must be a finite number"),
    ("boolean weight", _set(["schedule", "segments", 0, "edges", 0, "w"], True),
     "weight must be a finite number"),
    ("string margin", _set(["noise", "margin"], "abc"), "'margin' must be a finite number"),
    ("margin of one", _set(["noise", "margin"], 1.0), "'margin' must lie in [0, 1)"),
    ("negative margin", _set(["noise", "margin"], -0.1), "'margin' must lie in [0, 1)"),
    ("zero steps_per_window", _set(["noise", "steps_per_window"], 0), "'steps_per_window'"),
    ("boolean steps_per_window", _set(["noise", "steps_per_window"], True),
     "'steps_per_window'"),
    ("fractional steps_per_window", _set(["noise", "steps_per_window"], 2.5),
     "'steps_per_window'"),
    ("string scale", _set(["initial_state"], {"kind": "seeded-random", "scale": "abc"}),
     "'scale' must be a finite number"),
    ("infinite scale", _set(["initial_state"], {"kind": "eigvector", "scale": float("inf")}),
     "'scale' must be a finite number"),
    ("string value", _set(["initial_state"], {"kind": "consensus", "value": "abc"}),
     "'value' must be a finite number"),
    ("nan initial state entry", _set(["initial_state", 1], float("nan")),
     "'initial_state' must list 3 finite numbers"),
    ("infinite initial state entry", _set(["initial_state", 2], -float("inf")),
     "'initial_state' must list 3 finite numbers"),
    ("negative B0", _set(["noise", "B0"], -1.0), "'B0' must be nonnegative"),
    ("negative noise seed", _set(["noise", "seed"], -3), "'seed' must be a nonnegative integer"),
    ("boolean scenario seed", _set(["seed"], True), "'seed' must be a nonnegative integer"),
    ("string segment start", _set(["schedule", "segments", 1, "t0"], "1.0"),
     "'t0' and 't1' must be finite numbers"),
    ("edges not a list", _set(["schedule", "segments", 0, "edges"], 5), "'edges' must be a list"),
    ("string periodic", _set(["schedule", "periodic"], "yes"), "'periodic' must be true or false"),
    ("string bound", _set(["schedule", "bound"], "abc"), "'bound' must be a positive"),
    ("boolean eigvector segment", _set(["initial_state"], {"kind": "eigvector", "segment": True}),
     "'segment' must be"),
    ("numeric output_dir", _set(["output_dir"], 5), "'output_dir' must be a string"),
    ("numeric schedule_file", _numeric_schedule_file, "'schedule_file' must be a string"),
    ("list task name", _set(["tasks", 0, "task"], ["x"]), "unknown task ['x']"),
    ("one-row table values", _set(["noise"], _table_noise([0.0, 4.0], [0.1, 0.2])),
     "noise values must be a table"),
    ("boolean edge index", _set(["schedule", "segments", 0, "edges", 0, "i"], True),
     "edge indices must be integers"),
    ("nan table value", _set(["noise"], _table_noise([0.0, 4.0], [[0.1, float("nan"), 0.0]])),
     "noise values must be finite"),
    ("infinite table breakpoint",
     _set(["noise"], _table_noise([0.0, float("inf")], [[0.1, 0.2, 0.0]])),
     "noise breakpoints must be finite"),
    ("object table values", _set(["noise"], _table_noise([0.0, 4.0], {"a": 1})),
     "invalid table noise"),
]


def test_malformed_scenario_exits_2_without_outputs(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_valid_scenario()))
    assert main(["validate", str(good)]) == 0
    capsys.readouterr()
    for k, (label, mutate, message) in enumerate(MALFORMED):
        data = _valid_scenario()
        mutate(data)
        case_dir = tmp_path / f"case{k}"
        case_dir.mkdir()
        bad = case_dir / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["run", str(bad)]) == 2, label
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and message in err, (label, err)
        assert not (case_dir / "bad_out").exists(), label


def _too_few_samples_for_rate():
    data = _valid_scenario()
    del data["noise"]
    data["tasks"] = [{"task": "simulate", "t_end": 0.3, "sample_dt": 0.1}, {"task": "rate"}]
    return data


def test_rate_with_too_few_samples_exits_3_without_outputs(tmp_path, capsys):
    scn = tmp_path / "short.json"
    scn.write_text(json.dumps(_too_few_samples_for_rate()))
    assert main(["run", str(scn), "--output-dir", str(tmp_path / "nested" / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "samples" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["short.json"]


def test_failed_run_leaves_previous_outputs_untouched(tmp_path, capsys):
    code, out = run_scenario("k2_constant", tmp_path)
    assert code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    scn = tmp_path / "short.json"
    scn.write_text(json.dumps(_too_few_samples_for_rate()))
    assert main(["run", str(scn), "--output-dir", str(out)]) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k2_constant.json", "out", "short.json"]


def test_rerun_into_existing_output_dir_replaces_files(tmp_path):
    code, out = run_scenario("k2_constant", tmp_path)
    first = (out / "trajectory.csv").read_bytes()
    (out / "trajectory.csv").write_text("stale")
    code, out = run_scenario("k2_constant", tmp_path)
    assert code == 0
    assert (out / "trajectory.csv").read_bytes() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k2_constant.json", "out"]


def test_unknown_task_suggestion(tmp_path, capsys):
    scn = tmp_path / "typo.json"
    scn.write_text(json.dumps({
        "schedule": {"nodes": 2, "segments": [
            {"t0": 0, "t1": 1, "edges": [{"i": 1, "j": 2, "w": 1.0}]}]},
        "initial_state": [1.0, -1.0],
        "tasks": [{"task": "simulat", "t_end": 1.0, "sample_dt": 0.1}],
    }))
    assert main(["run", str(scn)]) == 2
    assert "did you mean 'simulate'" in capsys.readouterr().err


def test_math_domain_error_exits_3(tmp_path, capsys):
    # reconstruction over a window that is never jointly connected
    scn = tmp_path / "unobservable.json"
    scn.write_text(json.dumps({
        "schedule": {"nodes": 3, "segments": [
            {"t0": 0, "t1": 5, "edges": [{"i": 1, "j": 2, "w": 1.0}]}]},
        "initial_state": [1.0, -1.0, 0.5],
        "tasks": [
            {"task": "simulate", "t_end": 5.0, "sample_dt": 0.01},
            {"task": "reconstruct", "start": 0.0, "delta": 5.0},
        ],
    }))
    assert main(["run", str(scn)]) == 3
    assert "Gramian" in capsys.readouterr().err


def test_negative_link_violation_exits_3(tmp_path, capsys):
    # a_23 = -1 puts the Laplacian eigenvalue -1 below the Negative-Link tolerance
    scn = tmp_path / "nla.json"
    scn.write_text(json.dumps({
        "schedule": {"nodes": 3, "segments": [
            {"t0": 0, "t1": 5, "edges": [{"i": 1, "j": 2, "w": 1.0}, {"i": 1, "j": 3, "w": 1.0},
                                         {"i": 2, "j": 3, "w": -1.0}]}]},
        "initial_state": [1.0, -1.0, 0.5],
        "tasks": [{"task": "gramian", "start": 0.0, "delta": 2.0}],
    }))
    assert main(["run", str(scn), "--output-dir", str(tmp_path / "out")]) == 3
    assert "Negative-Link" in capsys.readouterr().err


# imports the package and runs the CLI with every scipy import refused
_RUN_WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked")
        return None

sys.meta_path.insert(0, RefuseScipy())
import consensuslab.cli
assert "scipy" not in sys.modules
sys.exit(consensuslab.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("name", ["robust_noise", "five_node_reconstruct"])
def test_runs_without_scipy(tmp_path, name):
    src = str(Path(consensuslab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_SCIPY, "run", str(SCENARIOS / f"{name}.json"),
         "--output-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_validate_command(tmp_path, capsys):
    code = main(["validate", str(SCENARIOS / "k2_constant.json")])
    assert code == 0
    assert "valid" in capsys.readouterr().out
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    env_out = tmp_path / "from_env"
    monkeypatch.setenv("CONSENSUSLAB_OUTPUT_DIR", str(env_out))
    dst = tmp_path / "k2.json"
    shutil.copy(SCENARIOS / "k2_constant.json", dst)
    assert main(["run", str(dst)]) == 0
    assert (env_out / "trajectory.csv").is_file()


def test_list_tasks_text():
    text = list_tasks()
    for name in ("simulate", "connectivity", "bounds", "gramian",
                 "reconstruct", "rate", "robustness"):
        assert name + ":" in text
    single = list_tasks("simulate")
    assert "t_end (required)" in single
    with pytest.raises(ScenarioError, match="did you mean"):
        list_tasks("gramian2")


def test_list_tasks_cli(capsys):
    assert main(["list-tasks"]) == 0
    out = capsys.readouterr().out
    assert "reconstruct:" in out
    assert main(["list-tasks", "--task", "simulate"]) == 0
    assert "sample_dt" in capsys.readouterr().out
    assert main(["list-tasks", "--task", "nope"]) == 2


def test_flags_live_in_json_not_exit_code(tmp_path):
    # non-convergence is a flagged result, not a failure
    code, out = run_scenario("isolated_node", tmp_path)
    assert code == 0
    rate = json.loads((out / "rate.json").read_text())
    assert rate["alpha"] < 1e-3
    bounds = json.loads((out / "bounds.json").read_text())
    assert not bounds["observable"]
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "not_connected"
    assert cert["counterexample_window"] is not None
