import ast
import inspect
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import consensuslab
import consensuslab.cli as cli_module
from consensuslab import (edge_signals, project, read_trajectory_csv, reconstruct,
                          schedule_from_dict, simulate)
from consensuslab.cli import list_tasks, load_scenario, main
from consensuslab.errors import ConfigurationError
from consensuslab.observability import _window_nodes
from helpers import check_certificate

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
    check_certificate(load_scenario(tmp_path / "five_node_reconstruct.json").schedule, 0.9, 2.0,
                      cert)
    assert (out / "edge_signals.csv").stat().st_size > 0


def test_alternating_reports(tmp_path):
    code, out = run_scenario("alternating_triangle", tmp_path)
    assert code == 0
    rate = json.loads((out / "rate.json").read_text())
    assert rate["converged"] and rate["alpha"] > 0.0
    bounds = json.loads((out / "bounds.json").read_text())
    assert bounds["observable"] and bounds["alpha1"] > 0.0
    # the certified rate is a lower bound on the fitted one
    assert bounds["gramian_floor"] == pytest.approx(0.0682274643, abs=1e-10)
    assert bounds["certified_rate"] == pytest.approx(0.0366772966, abs=1e-10)
    assert 0.0 < bounds["certified_rate"] <= rate["alpha"]
    cert = json.loads((out / "certificate.json").read_text())
    check_certificate(load_scenario(tmp_path / "alternating_triangle.json").schedule, 1.0, 2.0,
                      cert)
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


def _submodule_names():
    """Each submodule's ``__all__`` and the exception classes of ``errors``."""
    from consensuslab import analysis, dynamics, errors, graph, observability

    names = set().union(*(m.__all__ for m in (graph, dynamics, observability, analysis)))
    return names | {name for name, value in vars(errors).items()
                    if isinstance(value, type) and issubclass(value, Exception)}


def test_package_exports_exactly_the_submodule_names():
    exported = {name for name, value in vars(consensuslab).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == _submodule_names()
    assert len(exported) == 39


def test_every_exported_name_is_used_outside_the_unit_tests():
    # a public name that only unit tests load is an API kept for its tests:
    # each one is read as a name or an attribute in src/, bench/ or the
    # acceptance suite (an import, a def or an __all__ string is no read)
    root = SCENARIOS.parent
    files = [*(root / "src").rglob("*.py"), *(root / "bench").glob("*.py"),
             root / "tests" / "test_acceptance.py"]
    loaded = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert sorted(_submodule_names() - loaded) == []


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


def _parent(data, keys):
    for key in keys[:-1]:
        data = data[key]
    return data


def _set(keys, value):
    def mutate(data):
        _parent(data, keys)[keys[-1]] = value
    return mutate


def _append_task(task):
    return lambda data: data["tasks"].append(task)


def _drop(keys):
    def mutate(data):
        del _parent(data, keys)[keys[-1]]
    return mutate


def _table_noise(breakpoints, values):
    return {"kind": "table", "zeta": 1.0, "B0": 1.0, "breakpoints": breakpoints, "values": values}


def _schedule_file(name):
    def mutate(data):
        del data["schedule"]
        data["schedule_file"] = name
    return mutate


# (label, mutation of _valid_scenario() in place or a replacement scenario,
# fragment of the error message)
MALFORMED = [
    ("scenario not an object", lambda data: [data], "scenario must be a JSON object"),
    ("unknown scenario field", _set(["schedules"], {}), "unknown scenario fields: ['schedules']"),
    ("schedule and schedule_file", _set(["schedule_file"], "schedule.json"),
     "scenario needs exactly one of 'schedule' or 'schedule_file'"),
    ("no schedule", _drop(["schedule"]),
     "scenario needs exactly one of 'schedule' or 'schedule_file'"),
    ("missing schedule file", _schedule_file("missing.json"),
     "invalid schedule: schedule file not found: "),
    ("missing initial_state", _drop(["initial_state"]), "scenario is missing 'initial_state'"),
    ("unknown initial_state kind", _set(["initial_state"], {"kind": "ramp"}),
     "unknown initial_state kind 'ramp'"),
    ("eigvector index out of range", _set(["initial_state"], {"kind": "eigvector", "index": 4}),
     "eigvector initial state: 'index' must be 1..3"),
    ("table noise without breakpoints",
     _set(["noise"], {"kind": "table", "zeta": 1.0, "B0": 1.0, "values": [[0.1, 0.2, 0.0]]}),
     "table noise needs 'breakpoints' and 'values'"),
    ("table noise two wide", _set(["noise"], _table_noise([0.0, 4.0], [[0.1, 0.2]])),
     "noise values are 2 wide for a 3-node schedule"),
    ("unknown noise field", _set(["noise", "margn"], 0.5), "unknown noise fields: ['margn']"),
    ("zeta on zero noise", _set(["noise"], {"kind": "zero", "zeta": -1}),
     "unknown noise fields: ['zeta']"),
    ("breakpoints on windowed-random noise", _set(["noise", "breakpoints"], [0.0, 4.0]),
     "unknown noise fields: ['breakpoints']"),
    ("list noise kind", _set(["noise", "kind"], ["zero"]), "noise 'kind' must be one of"),
    ("unknown initial_state field", _set(["initial_state"], {"kind": "consensus", "valu": 3.0}),
     "unknown initial_state fields: ['valu']"),
    ("scale on a consensus state", _set(["initial_state"], {"kind": "consensus", "scale": 2.0}),
     "unknown initial_state fields: ['scale']"),
    ("list initial_state kind", _set(["initial_state"], {"kind": ["consensus"]}),
     "unknown initial_state kind ['consensus']"),
    # the scenario declares no seed either
    ("windowed-random noise without a seed", _drop(["noise", "seed"]),
     "scenario error: scenario uses randomness but declares no 'seed'"),
    ("seeded-random state without a seed", _set(["initial_state"], {"kind": "seeded-random"}),
     "scenario error: scenario uses randomness but declares no 'seed'"),
    ("unknown task parameter", _set(["tasks", 0, "dt"], 0.1),
     "task 'simulate': unknown parameters ['dt']"),
    ("missing required parameter", _drop(["tasks", 0, "sample_dt"]),
     "task 'simulate': missing required parameter 'sample_dt'"),
    ("rate before simulate", lambda data: data["tasks"].insert(0, {"task": "rate"}),
     "task 'rate' needs a preceding simulate task"),
    ("robustness without noise", _drop(["noise"]),
     "task 'robustness' needs a scenario 'noise' entry"),
    ("missing nodes", _drop(["schedule", "nodes"]), "nodes"),
    ("negative t_end", _set(["tasks", 0, "t_end"], -5.0), "'t_end' must be positive"),
    ("zero sample_dt", _set(["tasks", 0, "sample_dt"], 0.0), "'sample_dt' must be positive"),
    ("boolean t_end", _set(["tasks", 0, "t_end"], True), "'t_end' must be a finite number"),
    ("infinite t_end", _set(["tasks", 0, "t_end"], float("inf")), "finite number"),
    ("401-digit integer t_end", _set(["tasks", 0, "t_end"], 10 ** 400),
     "'t_end' must be a finite number"),
    ("401-digit integer weight", _set(["schedule", "segments", 0, "edges", 0, "w"], -10 ** 400),
     "weight must be a finite number"),
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
    ("negative B0", _set(["noise", "B0"], -1.0), "B0 must be finite and nonnegative"),
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
    ("NUL in output_dir", _set(["output_dir"], "a\u0000b"), "'output_dir' must not contain a NUL"),
    ("empty output_dir", _set(["output_dir"], ""), "'output_dir' must name a directory, got ''"),
    ("lone surrogate in output_dir", _set(["output_dir"], "a\ud800b"),
     "'output_dir' is not a valid path"),
    ("numeric schedule_file", _schedule_file(5), "'schedule_file' must be a string"),
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
    # t_end / step overflows to inf, a count that int() and math.ceil refuse
    ("subnormal sample_dt", _set(["tasks", 0, "sample_dt"], 1e-320),
     "task 'simulate': 4.0 / 1e-320 is not a finite count of steps"),
    ("subnormal robustness sample_dt", _set(["tasks", 4, "sample_dt"], 1e-320),
     "task 'robustness': 4.0 / 1e-320 is not a finite count of steps"),
    ("subnormal table zeta", _set(["noise"], {**_table_noise([0.0, 4.0], [[0.1, 0.2, 0.0]]),
                                              "zeta": 1e-320}),
     "invalid table noise: 4.0 / 1e-320 is not a finite count of steps"),
    ("subnormal windowed-random zeta", _set(["noise", "zeta"], 1e-320),
     "invalid windowed-random noise: 4.0 / 1e-320 is not a finite count of steps"),
    ("negative cond_tol",
     _append_task({"task": "reconstruct", "start": 0.0, "delta": 2.0, "cond_tol": -1.0}),
     "'cond_tol' must be positive"),
    ("zero cond_tol",
     _append_task({"task": "reconstruct", "start": 0.0, "delta": 2.0, "cond_tol": 0.0}),
     "'cond_tol' must be positive"),
]


def test_malformed_scenario_exits_2_without_outputs(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_valid_scenario()))
    assert main(["validate", str(good)]) == 0
    capsys.readouterr()
    for k, (label, mutate, message) in enumerate(MALFORMED):
        data = _valid_scenario()
        data = mutate(data) or data
        case_dir = tmp_path / f"case{k}"
        case_dir.mkdir()
        bad = case_dir / "bad.json"
        bad.write_text(json.dumps(data))
        for command in ("validate", "run"):
            assert main([command, str(bad)]) == 2, (label, command)
            err = capsys.readouterr().err
            assert err.startswith("scenario error:") and message in err, (label, err)
        assert [p.name for p in case_dir.iterdir()] == ["bad.json"], label


def _rename(spec, old, new):
    spec[new] = spec.pop(old)


@pytest.mark.parametrize("mutate,message", [
    (lambda s: _rename(s["segments"][0], "edges", "edge"), "unknown segment 0 fields: ['edge']"),
    (lambda s: _rename(s, "periodic", "periodc"), "unknown schedule fields: ['periodc']"),
    (lambda s: s["segments"][1]["edges"][0].update(weight=2.0),
     "unknown segment 1 edge fields: ['weight']"),
    (lambda s: s.update(periodic=False), "'period' is only valid with 'periodic': true"),
    (lambda s: s.update(name=[1, 2]), "'name' must be a string, got [1, 2]"),
], ids=["edge", "periodc", "weight", "period_without_periodic", "name_list"])
def test_schedule_field_it_does_not_read_exits_2_without_outputs(tmp_path, capsys,
                                                                 mutate, message):
    # each was dropped in silence: an edgeless segment, a non-periodic
    # schedule, a lost weight, a period without its wrap-around windows;
    # and a name that is not a string was kept, to be written back
    data = json.loads((SCENARIOS / "alternating_triangle.json").read_text())
    mutate(data["schedule"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 2, command
        assert capsys.readouterr().err == f"scenario error: invalid schedule: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def _file_scenario_bytes():
    data = _valid_scenario()
    data["schedule_file"] = "schedule.json"
    return json.dumps(data.pop("schedule")).encode(), json.dumps(data).encode()


# (schedule file bytes, scenario bytes) that no JSON parser reads, and the message
UNREADABLE = {
    "scenario-invalid-utf8": (lambda sched, scn: (sched, scn.replace(b'"bad_out"', b'"bad\xff"')),
                              "scenario is not valid UTF-8 JSON"),
    "schedule-invalid-json": (lambda sched, scn: (sched[:-1], scn), "invalid schedule: Expecting"),
    "schedule-invalid-utf8": (lambda sched, scn: (sched.replace(b'"segments"', b'"\xffs"'), scn),
                              "invalid schedule: 'utf-8' codec can't decode"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_exits_2_without_outputs(tmp_path, capsys, case):
    garble, message = UNREADABLE[case]
    sched, scn = garble(*_file_scenario_bytes())
    (tmp_path / "schedule.json").write_bytes(sched)
    (tmp_path / "scenario.json").write_bytes(scn)
    for command in ("validate", "run"):
        assert main([command, str(tmp_path / "scenario.json")]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and message in err, err
        assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json", "schedule.json"]


@pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "below-file"])
def test_output_path_through_a_file_exits_2_without_outputs(tmp_path, capsys, below):
    shutil.copy(SCENARIOS / "k2_constant.json", tmp_path / "k2.json")
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert main(["run", str(tmp_path / "k2.json"), "--output-dir", str(taken.joinpath(*below))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error:") and "not a directory" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k2.json", "taken"]
    assert taken.read_text() == "kept"


def test_empty_output_dir_flag_exits_2_without_outputs(tmp_path, capsys):
    # `--output-dir ""` wrote into the scenario's own output directory
    shutil.copy(SCENARIOS / "k2_constant.json", tmp_path / "k2.json")
    assert main(["run", str(tmp_path / "k2.json"), "--output-dir", ""]) == 2
    assert capsys.readouterr().err == "scenario error: --output-dir must name a directory, got ''\n"
    assert [p.name for p in tmp_path.iterdir()] == ["k2.json"]


@pytest.mark.parametrize("made", [(), ("ro",)], ids=["fresh", "below-existing"])
def test_output_dir_that_cannot_be_made_exits_2_without_outputs(tmp_path, capsys, made):
    shutil.copy(SCENARIOS / "k2_constant.json", tmp_path / "k2.json")
    tmp_path.joinpath(*made).mkdir(exist_ok=True)
    before = sorted(tmp_path.rglob("*"))
    target = tmp_path / "ro" / ("0" * 300) / "out"  # a name longer than the OS takes
    assert main(["run", str(tmp_path / "k2.json"), "--output-dir", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: output directory {target}: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


def _horizon_scenario(tasks, noise=None):
    """A 3-node non-periodic schedule with horizon 4 and the given tasks."""
    data = {
        "schedule": {"nodes": 3, "segments": [
            {"t0": 0.0, "t1": 2.0, "edges": [{"i": 1, "j": 2, "w": 1.0}]},
            {"t0": 2.0, "t1": 4.0, "edges": [{"i": 2, "j": 3, "w": 1.0}]}]},
        "initial_state": [1.0, 0.0, -1.0],
        "output_dir": "out",
        "tasks": tasks,
    }
    if noise is not None:
        data["noise"] = noise
    return data


_SIMULATE_TO_2 = {"task": "simulate", "t_end": 2.0, "sample_dt": 0.1}
_SIMULATE_TO_4 = {"task": "simulate", "t_end": 4.0, "sample_dt": 0.5}


def _rate_on_quarters(fit_dt):
    """A periodic 3-node run to t_end 6 sampled every 0.25 s, then a rate fit
    on the multiples of fit_dt from skip_time 0.5 on."""
    data = _horizon_scenario([{"task": "simulate", "t_end": 6.0, "sample_dt": 0.25},
                              {"task": "rate", "skip_time": 0.5, "fit_dt": fit_dt}])
    data["schedule"]["periodic"] = True
    return data


_ALTERNATING_EDGES = ([{"i": 1, "j": 2, "w": 1.0}, {"i": 2, "j": 3, "w": 0.5}],
                      [{"i": 1, "j": 3, "w": 0.8}, {"i": 2, "j": 3, "w": 1.0}])


def _reconstruct_scenario(cuts, t_end, sample_dt, start, delta, cond_tol=1e-8):
    """A 3-node schedule cut at ``cuts`` (its edge sets alternating), a run
    to t_end from [1, 0, -2], and one reconstruct window."""
    segments = [{"t0": a, "t1": b, "edges": _ALTERNATING_EDGES[i % 2]}
                for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:]))]
    return {"schedule": {"nodes": 3, "segments": segments},
            "initial_state": [1.0, 0.0, -2.0], "output_dir": "out",
            "tasks": [{"task": "simulate", "t_end": t_end, "sample_dt": sample_dt},
                      {"task": "reconstruct", "start": start, "delta": delta,
                       "cond_tol": cond_tol}]}


def _golden_with(name, mutate):
    data = json.loads((SCENARIOS / f"{name}.json").read_text())
    mutate(data)
    return data


def _golden_with_last_task(name, **params):
    """A golden scenario writing into ``out``, with its last task's parameters updated."""
    data = json.loads((SCENARIOS / f"{name}.json").read_text())
    data["tasks"][-1].update(params)
    data["output_dir"] = "out"
    return data


_SLIVER_CUTS = [0.0, 0.5, 0.500000001, 2.0]  # a sliver segment between the samples 0.5, 0.51
_OFF_GRID_CUTS = [0.0, 2.57, 2.570000075, 4.0]  # trace tolerance 7e-8, below 1e-6 * 0.25


@pytest.mark.parametrize("data,message", [
    (_horizon_scenario([{"task": "simulate", "t_end": 5.0, "sample_dt": 0.1}]),
     "exceeds the horizon"),
    (_horizon_scenario([{"task": "gramian", "start": 3.0, "delta": 2.0}]),
     "exceeds the horizon"),
    (_horizon_scenario([{"task": "gramian", "start": -1.0, "delta": 4.0}]),
     "task 'gramian': window start -1.0 is before the schedule start"),
    (_horizon_scenario([{"task": "connectivity", "delta": 0.5, "T": 5.0}]),
     "exceeds the horizon"),
    # a message that ends in a newline is the whole of stderr
    (_golden_with("k2_constant", _set(["tasks"], [{"task": "bounds", "delta": 20.0}])),
     "scenario error: task 'bounds': time 20.0 exceeds the horizon 10.0\n"),
    (_horizon_scenario([{"task": "simulate", "t_end": 3.0, "sample_dt": 0.1}],
                       noise={"kind": "table", "zeta": 1.0, "B0": 1.0,
                              "breakpoints": [0.0, 2.0], "values": [[0.1, 0.0, 0.0]]}),
     "table noise does not cover [0, 3.0]"),
    # inside the horizon, but past the simulated trace the task reads
    (_horizon_scenario([_SIMULATE_TO_2, {"task": "reconstruct", "start": 3.0, "delta": 1.0}]),
     "window [3.0, 4.0] is not inside the simulated [0, 2.0]"),
    (_horizon_scenario([_SIMULATE_TO_2, {"task": "reconstruct", "start": 1.5, "delta": 1.0}]),
     "window [1.5, 2.5] is not inside the simulated [0, 2.0]"),
    (_horizon_scenario([_SIMULATE_TO_2, {"task": "reconstruct", "start": -1.0, "delta": 2.0}]),
     "window [-1.0, 1.0] is not inside the simulated [0, 2.0]"),
    (_horizon_scenario([_SIMULATE_TO_2, {"task": "rate", "skip_time": 2.0}]),
     "fewer than two samples lie in [skip_time 2.0, t_end 2.0] on the simulated sample grid"),
    # one sample, t_end 10.0, lies from skip_time 9.995 on
    (_golden_with_last_task("k2_constant", skip_time=9.995),
     "fewer than two samples lie in [skip_time 9.995, t_end 10.0] on the simulated sample grid"),
    # a fit_dt grid with one point in [skip_time, t_end]: 0, and 3.0
    (_horizon_scenario([_SIMULATE_TO_2, {"task": "rate", "fit_dt": 1e300}]),
     "fewer than two multiples of fit_dt 1e+300 lie in [skip_time 0.0, t_end 2.0]"),
    (_horizon_scenario([_SIMULATE_TO_4, {"task": "rate", "skip_time": 1.0, "fit_dt": 3.0}]),
     "fewer than two multiples of fit_dt 3.0 lie in [skip_time 1.0, t_end 4.0]"),
    # multiples 0.7 to 5.6 of fit_dt in the run, but only 3.5 is a sample
    (_rate_on_quarters(0.7),
     "fewer than two multiples of fit_dt 0.7 lie in [skip_time 0.5, t_end 6.0] on the "
     "simulated sample grid"),
    # inside the trace, but off its sample grid: a piece [1.9, 2.0] with one
    # sample, and window ends between samples
    (_horizon_scenario([_SIMULATE_TO_4, {"task": "reconstruct", "start": 1.9, "delta": 0.2}]),
     "trace does not cover segment piece [1.9, 2.0] of the window [1.9, "),
    (_horizon_scenario([_SIMULATE_TO_4, {"task": "reconstruct", "start": 0.25, "delta": 1.0}]),
     "trace does not cover segment piece [0.25, 1.25] of the window [0.25, 1.25]"),
    # within 5e-7 of the sample 2.0, but a piece [2.0 - 2e-7, 2.0] before it
    (_horizon_scenario([_SIMULATE_TO_4, {"task": "reconstruct", "start": 2.0 - 2e-7,
                                         "delta": 1.0}]),
     "trace does not cover segment piece [1.9999998, 2.0] of the window [1.9999998, "),
    # a sliver the run samples once, and window ends 7.5e-8 off the samples
    # 0.75 and 2.25: within 1e-6 * sample_dt, but not within the trace's 7e-8
    (_reconstruct_scenario(_SLIVER_CUTS, 2.0, 0.01, 0.0, 1.0),
     "trace does not cover segment piece [0.5, 0.500000001] of the window [0.0, 1.0]"),
    (_reconstruct_scenario(_OFF_GRID_CUTS, 3.0, 0.25, 0.749999925, 2.0, cond_tol=1e-300),
     "trace does not cover segment piece [0.749999925, 2.57] of the window [0.749999925, "),
    (_reconstruct_scenario(_OFF_GRID_CUTS, 3.0, 0.25, 0.25, 2.000000075),
     "trace does not cover segment piece [0.25, 2.25000007"),
], ids=["simulate-past-horizon", "gramian-past-horizon", "gramian-before-start",
        "connectivity-past-horizon", "bounds-past-horizon",
        "table-noise-too-short", "reconstruct-after-trace", "reconstruct-straddles-trace-end",
        "reconstruct-before-start",
        "rate-skips-whole-trace", "rate-keeps-one-sample", "rate-fit-grid-of-one-point", "rate-fit-grid-after-skip",
        "rate-fit-grid-of-one-sample",
        "reconstruct-piece-between-samples",
        "reconstruct-ends-between-samples", "reconstruct-starts-just-before-a-boundary",
        "reconstruct-over-a-sliver", "reconstruct-starts-off-the-trace",
        "reconstruct-ends-off-the-trace"])
def test_time_range_that_cannot_run_exits_2(tmp_path, capsys, data, message):
    scn = tmp_path / "range.json"
    scn.write_text(json.dumps(data))
    for command in ("validate", "run"):
        assert main([command, str(scn)]) == 2, command
        err = capsys.readouterr().err
        if message.endswith("\n"):
            assert err == message, (command, err)
        assert err.startswith("scenario error:") and message in err, (command, err)
        assert not (tmp_path / "out").exists(), command


@pytest.mark.parametrize("fit_dt", [1.0, 5e-324])
def test_rate_fit_grid_of_two_points_or_more_validates(tmp_path, fit_dt):
    # multiples 1.0 and 2.0 in [1.0, 2.0]; and more than a float can count
    data = _horizon_scenario([_SIMULATE_TO_2, {"task": "rate", "skip_time": 1.0,
                                               "fit_dt": fit_dt}])
    scn = tmp_path / "rate.json"
    scn.write_text(json.dumps(data))
    assert main(["validate", str(scn)]) == 0


@pytest.mark.parametrize("data", [_rate_on_quarters(0.75), _rate_on_quarters(5e-324),
                                  _horizon_scenario([_SIMULATE_TO_2, {"task": "rate",
                                                                      "fit_dt": 5e-324}])],
                         ids=["samples-every-0.75", "tiny-fit-dt", "tiny-fit-dt-to-2"])
def test_rate_fit_grid_that_validates_runs(tmp_path, data):
    # a fit_dt below the grid tolerance keeps every sample: a fit without it
    scn = tmp_path / "rate.json"
    scn.write_text(json.dumps(data))
    assert main(["validate", str(scn)]) == 0
    assert main(["run", str(scn)]) == 0
    fit = json.loads((tmp_path / "out" / "rate.json").read_text())
    if data["tasks"][1]["fit_dt"] == 5e-324:
        del data["tasks"][1]["fit_dt"]
        scn.write_text(json.dumps(data))
        assert main(["run", str(scn), "--output-dir", str(tmp_path / "plain")]) == 0
        assert json.loads((tmp_path / "plain" / "rate.json").read_text()) == fit
    else:
        assert fit["sample_count"] >= 2


def test_reconstruct_window_from_a_boundary_off_the_sample_steps_runs(tmp_path):
    # the boundary 1.3 is a sample of the run, though not a multiple of 0.5
    data = _horizon_scenario([_SIMULATE_TO_4, {"task": "reconstruct", "start": 1.3, "delta": 1.2}])
    edges = [{"i": 1, "j": 2, "w": 1.0}, {"i": 2, "j": 3, "w": 1.0}]
    data["schedule"]["segments"] = [{"t0": 0.0, "t1": 1.3, "edges": edges},
                                    {"t0": 1.3, "t1": 4.0, "edges": edges}]
    scn = tmp_path / "boundary.json"
    scn.write_text(json.dumps(data))
    assert main(["validate", str(scn)]) == 0
    assert main(["run", str(scn)]) == 0
    assert (tmp_path / "out" / "reconstruction.json").is_file()


def test_reconstruct_window_from_a_sliver_end_runs(tmp_path):
    # the trace holds three rows at 0.5; the window's first piece takes the last
    scn = tmp_path / "sliver.json"
    scn.write_text(json.dumps(_reconstruct_scenario(_SLIVER_CUTS, 2.0, 0.01, 0.500000001, 1.0)))
    assert main(["validate", str(scn)]) == 0
    assert main(["run", str(scn)]) == 0
    report = json.loads((tmp_path / "out" / "reconstruction.json").read_text())
    assert report["error_vs_truth"] <= 1e-6


def test_reconstruct_window_an_ulp_past_t_end_runs(tmp_path):
    # 0.1 + 1.1 rounds to 1.2000000000000002, on the trace's last sample 1.2
    data = json.loads((SCENARIOS / "alternating_triangle.json").read_text())
    data["output_dir"] = "out"
    data["tasks"] = [{"task": "simulate", "t_end": 1.2, "sample_dt": 0.01},
                     {"task": "reconstruct", "start": 0.1, "delta": 1.1}]
    assert 0.1 + 1.1 > 1.2
    scn = tmp_path / "ulp.json"
    scn.write_text(json.dumps(data))
    assert main(["validate", str(scn)]) == 0
    assert main(["run", str(scn)]) == 0
    report = json.loads((tmp_path / "out" / "reconstruction.json").read_text())
    assert report["error_vs_truth"] <= 1e-6


def test_reconstruct_window_within_the_coverage_tolerance_reports_its_error(tmp_path):
    # 3e-9 off the sample 2.25, inside the tolerance 1e-6 * sample_dt = 7.8e-9
    scn = tmp_path / "off.json"
    scn.write_text(json.dumps(_golden_with_last_task("five_node_reconstruct",
                                                     start=2.25 + 3e-9, delta=2.5)))
    assert main(["validate", str(scn)]) == 0
    assert main(["run", str(scn)]) == 0
    report = json.loads((tmp_path / "out" / "reconstruction.json").read_text())
    assert report["error_vs_truth"] <= 1e-6


def test_noisy_reconstruction_error_excludes_the_average_drift(tmp_path):
    # the noise moves the average, which edge signals cannot see: the error is
    # measured against x(2) - mean(x(2)), not x(2) - mean(x(0)) (0.7676)
    data = json.loads((SCENARIOS / "robust_noise.json").read_text())
    data["initial_state"] = [1.0, 0.0, -2.0]
    data["output_dir"] = "out"
    data["tasks"] = [{"task": "simulate", "t_end": 6.0, "sample_dt": 1.0 / 256.0},
                     {"task": "reconstruct", "start": 2.0, "delta": 2.0}]
    scn = tmp_path / "noisy.json"
    scn.write_text(json.dumps(data))
    assert main(["run", str(scn)]) == 0
    report = json.loads((tmp_path / "out" / "reconstruction.json").read_text())
    assert report["error_vs_truth"] == pytest.approx(0.41335, abs=1e-5)


def test_reconstruct_on_a_signed_schedule(tmp_path):
    # the edge signals carry sqrt(|a_ij|); the signs stay with the schedule
    data = json.loads((SCENARIOS / "signed_triangle.json").read_text())
    data["output_dir"] = "out"
    data["tasks"] = [{"task": "simulate", "t_end": 2.0, "sample_dt": 0.005},
                     {"task": "reconstruct", "start": 0.0, "delta": 1.0}]
    scn = tmp_path / "signed.json"
    scn.write_text(json.dumps(data))
    assert main(["validate", str(scn)]) == 0
    assert main(["run", str(scn)]) == 0
    report = json.loads((tmp_path / "out" / "reconstruction.json").read_text())
    assert report["error_vs_truth"] <= 1e-6, report
    assert (tmp_path / "out" / "edge_signals.csv").is_file()


def _jitter(rng, dt):
    """A signed offset of 1e-9 to 2e-6 times dt, on a log scale."""
    return rng.choice([-1.0, 1.0]) * dt * 10.0 ** rng.uniform(-9.0, np.log10(2e-6))


def _coverage_case(rng):
    """A run to a multiple of sample_dt over boundaries on the samples, just
    off them or between them, some followed by a sliver segment, and a
    reconstruct window from a boundary or a sample (or just off one) to a
    later boundary or sample."""
    dt = float(rng.choice([0.01, 0.05, 0.25]))
    steps = int(rng.integers(8, 25))
    t_end = dt * steps
    cuts = []
    for k in np.sort(rng.choice(np.arange(1, steps), size=3, replace=False)):
        b = k * dt + [0.0, _jitter(rng, dt), dt * rng.uniform(0.05, 0.95)][rng.integers(3)]
        cuts.append(b)
        if rng.random() < 0.4:
            cuts.append(b + dt * 10.0 ** rng.uniform(-9.0, -3.0))
    cuts = sorted(set(cuts))
    start = float(rng.choice([*cuts, dt * rng.integers(0, steps)]))
    if rng.random() < 0.4:
        start += _jitter(rng, dt)
    start = min(max(start, 0.0), t_end - dt)
    ends = [t for t in [*cuts, *(dt * np.arange(steps + 1))] if t > start + dt / 2]
    delta = float(rng.choice(ends)) - start
    return _reconstruct_scenario([0.0, *cuts, t_end], t_end, dt, start, delta, cond_tol=1e-300)


def test_validate_accepts_exactly_the_windows_reconstruct_covers(tmp_path, capsys):
    rng = np.random.default_rng(15)
    scn = tmp_path / "case.json"
    refused = 0
    for case in range(150):
        data = _coverage_case(rng)
        sim, rec = data["tasks"]
        sched = schedule_from_dict(data["schedule"])
        traj = simulate(sched, data["initial_state"], sim["t_end"], sim["sample_dt"])
        try:
            estimate = reconstruct(edge_signals(traj, sched), sched, rec["start"], rec["delta"],
                                   cond_tol=rec["cond_tol"])
        except ConfigurationError:
            estimate = None
        scn.write_text(json.dumps(data))
        if estimate is None:
            refused += 1
            for command in ("validate", "run"):
                assert main([command, str(scn)]) == 2, (case, command, data)
                assert not (tmp_path / "out").exists(), (case, command)
        else:
            assert main(["validate", str(scn)]) == 0, (case, data)
            # y(s) on the row where the coverage rule starts the window, also
            # off the sample steps; a wrong row shows as a far larger error
            row = _window_nodes(traj.sample_times, sched, rec["start"], rec["delta"])[0][3]
            truth = project(traj.states[row])
            assert np.linalg.norm(estimate - truth) <= 10.0 * sim["sample_dt"] ** 2, case
        capsys.readouterr()
    assert 30 <= refused <= 120, refused


def _agreement_case(rng):
    """A 3-node run, periodic or not, over boundaries on the sample steps or
    off them; a reconstruct window from within 1e-8 of a sample step to a
    later one; and a rate fit from a skip_time anywhere in [0, t_end] (within
    one sample of t_end too), with no fit_dt, one on the sample steps or one
    off them."""
    dt = float(rng.choice([0.01, 0.05, 0.25]))
    steps = int(rng.integers(12, 40))
    t_end = dt * steps
    periodic = rng.random() < 0.5
    horizon = dt * int(rng.integers(4, steps // 2)) if periodic else t_end
    cuts = sorted({dt * k + [0.0, dt * rng.uniform(0.05, 0.95)][rng.integers(2)]
                   for k in rng.integers(1, round(horizon / dt), size=2)})
    first = int(rng.integers(0, steps - 1))
    start = max(dt * first + rng.choice([0.0, 1.0, -1.0]) * rng.uniform(0.0, 1e-8), 0.0)
    delta = dt * int(rng.integers(first + 1, steps + 1)) - start
    skip = [rng.uniform(0.0, t_end), t_end - rng.uniform(0.0, dt), t_end - dt * rng.integers(0, 4)]
    fit_dt = [None, dt * int(rng.integers(1, steps)), dt * rng.uniform(0.5, steps / 2)]
    data = _reconstruct_scenario([0.0, *cuts, horizon], t_end, dt, start, delta, cond_tol=1e-300)
    data["schedule"]["periodic"] = periodic
    rate = {"task": "rate", "skip_time": float(skip[rng.integers(3)])}
    fit_dt = fit_dt[rng.integers(3)]
    if fit_dt is not None:
        rate["fit_dt"] = float(fit_dt)
    data["tasks"].append(rate)
    return data


# the exit-3 messages of a validated run that the README names: the fit's
# error floor and its window, the Negative-Link Assumption and cond_tol
_DOMAIN_REFUSALS = ("need at least 10 samples above the error floor", "fit window is empty",
                    "Negative-Link Assumption violated", "at or below cond_tol")


def _validate_then_run(scn, data, capsys, refusals):
    """Validate and run a generated scenario that writes into ``out`` beside
    ``scn``, and check that they agree: validate 2 means run 2 with the same
    message, validate 0 means run 0 or run 3 with one of ``refusals``, and a
    failed run writes nothing.  Returns run's exit code and its stderr."""
    scn.write_text(json.dumps(data))
    valid = main(["validate", str(scn)])
    refusal = capsys.readouterr().err
    code = main(["run", str(scn)])
    err = capsys.readouterr().err
    if valid == 2:
        assert code == 2 and err == refusal, (data, err)
    else:
        assert valid == 0 and (code == 0 or code == 3 and any(m in err for m in refusals)), \
            (data, err)
    assert (scn.parent / "out").exists() == (code == 0), (data, err)
    return code, err


def test_validate_agrees_with_run_on_reconstruct_and_rate(tmp_path, capsys):
    # validate 0: run exits 0 and reports error_vs_truth, or exits 3 from a fit
    # that the README names (too few samples above the floor or in its tail);
    # validate 2: run exits 2 and writes nothing
    rng = np.random.default_rng(27)
    scn, out = tmp_path / "case.json", tmp_path / "out"
    seen = {"reconstruct": 0, "rate": 0, "ran": 0}
    for case in range(200):
        data = _agreement_case(rng)
        code, err = _validate_then_run(scn, data, capsys, _DOMAIN_REFUSALS[:2])
        if code == 2:
            seen["rate" if "task 'rate'" in err else "reconstruct"] += 1
        elif code == 0:
            report = json.loads((out / "reconstruction.json").read_text())
            # the reference truth row: the coverage rule run on the trajectory
            traj = read_trajectory_csv(out / "trajectory.csv")
            rec = next(t for t in data["tasks"] if t["task"] == "reconstruct")
            row = _window_nodes(traj.sample_times, load_scenario(scn).schedule, rec["start"],
                                rec["delta"])[0][3]
            truth = project(traj.states[row])
            assert report["error_vs_truth"] == float(
                np.linalg.norm(np.array(report["estimate"]) - truth)), case
            seen["ran"] += 1
            shutil.rmtree(out)
    assert min(seen.values()) >= 20, seen


def _near(rng, t, scale):
    """t, an ulp either side of it, or 1e-10 * scale either side of it."""
    return float(rng.choice([t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf),
                             t + 1e-10 * scale, t - 1e-10 * scale]))


def _every_kind_case(rng):
    """A 2-4-node schedule, periodic or not, of 1-4 segments (one a 1e-7
    sliver in about a fifth of the cases) over a period of 0.25 or more,
    about a tenth of its edges negative; a simulate task, then each other
    task kind with probability 0.6 in random order, each end at a multiple
    of the horizon or near one (``_near``) and each window start at 0,
    +-1e-13 or -1e-9; and no noise, windowed-random noise (margin 0 or 0.3)
    or table noise."""
    n = int(rng.integers(2, 5))
    lengths = rng.uniform(0.05, 1.5, int(rng.integers(1, 5)))
    if rng.random() < 0.2:
        lengths[rng.integers(lengths.size)] = 1e-7
    lengths *= max(1.0, 0.25 / lengths.sum())
    cuts = np.concatenate(([0.0], np.cumsum(lengths))).tolist()
    horizon, periodic = cuts[-1], bool(rng.random() < 0.5)
    segments = [{"t0": t0, "t1": t1, "edges": [
        {"i": i, "j": j, "w": float(rng.uniform(0.2, 2.0) * (-0.5 if rng.random() < 0.1 else 1.0))}
        for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.6]}
        for t0, t1 in zip(cuts[:-1], cuts[1:])]

    def end():
        return _near(rng, horizon * (int(rng.integers(1, 4)) if periodic else 1), horizon)

    def start():
        return float(rng.choice([0.0, 0.0, 0.0, 1e-13, 1e-13, -1e-13, -1e-9]))

    t_end = end()
    dt = float(rng.choice([horizon / rng.integers(4, 40), rng.uniform(0.01, 0.1)]))
    noise = ("none", "windowed-random", "table")[rng.integers(3)]
    tasks = [{"task": "simulate", "t_end": t_end, "sample_dt": dt}]
    for kind in rng.permutation(["connectivity", "bounds", "gramian", "reconstruct", "rate",
                                 "robustness"]).tolist():
        s = start()
        if rng.random() < 0.4 or kind == "robustness" and noise == "none" and rng.random() < 0.9:
            continue
        task = {"connectivity": {"delta": float(rng.uniform(0.01, 0.5)), "T": end()},
                "bounds": {"delta": end()},
                "gramian": {"start": s, "delta": end() - s},
                "rate": {"skip_time": float(rng.choice([0.0, rng.uniform(0.0, t_end / 2)]))},
                "robustness": {"t_end": end(), "sample_dt": dt}}.get(kind, {})
        if kind == "reconstruct":
            s = s if rng.random() < 0.5 else dt * int(rng.integers(0, 4))
            task = {"start": s, "delta": _near(rng, t_end, horizon) - s}
            if rng.random() < 0.5:
                task["cond_tol"] = 1e-300
        if kind == "rate" and rng.random() < 0.5:
            task["fit_dt"] = float(rng.choice([horizon, dt * int(rng.integers(1, 4))]))
        tasks.append({"task": kind, **task})
    data = {"schedule": {"nodes": n, "periodic": periodic, "segments": segments},
            "initial_state": rng.uniform(-1.0, 1.0, n).tolist(), "seed": int(rng.integers(1000)),
            "output_dir": "out", "tasks": tasks}
    if noise == "windowed-random":
        data["noise"] = {"kind": noise, "zeta": float(rng.uniform(0.1, 1.0)),
                         "B0": float(rng.uniform(0.1, 2.0)), "margin": float(rng.choice([0.0, 0.3]))}
    elif noise == "table":
        # over the latest t_end, 1e-10 of it past that or 1.2 times it; B0 the
        # whole table's energy, or a bound that some window breaks
        span = max(t["t_end"] for t in tasks if "t_end" in t) * rng.choice([1.0, 1.0 + 1e-10, 1.2])
        breaks = np.linspace(0.0, span, int(rng.integers(2, 12)))
        values = rng.uniform(-1.0, 1.0, (breaks.size - 1, n))
        energy = float(np.diff(breaks) @ np.sum(values ** 2, axis=1))
        data["noise"] = {"kind": noise, "zeta": float(rng.uniform(0.1, 1.0)),
                         "B0": energy * float(rng.choice([1.0, 1.0, 1.0, 0.3])),
                         "breakpoints": breaks.tolist(), "values": values.tolist()}
    return data


def test_validate_agrees_with_run_on_every_task_kind(tmp_path, capsys):
    # the property of the test above, over every task kind, signed schedules,
    # noise, and ends and window starts within ulps of their boundaries
    rng = np.random.default_rng(1)
    scn, out = tmp_path / "case.json", tmp_path / "out"
    reached = dict.fromkeys(cli_module.TASKS, 0)
    for case in range(200):
        data = _every_kind_case(rng)
        if _validate_then_run(scn, data, capsys, _DOMAIN_REFUSALS)[0] == 0:
            for task in data["tasks"]:
                reached[task["task"]] += 1
            if (out / "reconstruction.json").exists():
                assert "error_vs_truth" in json.loads((out / "reconstruction.json").read_text())
            shutil.rmtree(out)
    assert min(reached.values()) >= 20, reached


def test_zero_noise_robustness_report(tmp_path):
    scn = tmp_path / "zero.json"
    scn.write_text(json.dumps(_horizon_scenario(
        [{"task": "robustness", "t_end": 4.0, "sample_dt": 0.5}], noise={"kind": "zero"})))
    assert main(["run", str(scn)]) == 0
    report = json.loads((tmp_path / "out" / "robustness.json").read_text())
    assert report["zeta"] is None
    assert report["B0"] == 0.0
    assert report["sup_error"] == 0.0


def test_eigvector_initial_state_decays_at_its_eigenvalue(tmp_path):
    # path 1-2-3 with weights 1 and 0.5: L has eigenvalues 0 and 1.5 -+ sqrt(0.75)
    data = {
        "schedule": {"nodes": 3, "segments": [{"t0": 0.0, "t1": 10.0, "edges": [
            {"i": 1, "j": 2, "w": 1.0}, {"i": 2, "j": 3, "w": 0.5}]}]},
        "initial_state": {"kind": "eigvector", "index": 2, "scale": 2.0},
        "tasks": [{"task": "simulate", "t_end": 10.0, "sample_dt": 0.05}, {"task": "rate"}],
    }
    scn = tmp_path / "eig.json"
    scn.write_text(json.dumps(data))
    assert main(["run", str(scn)]) == 0
    rate = json.loads((tmp_path / "out" / "rate.json").read_text())
    assert rate["alpha"] == pytest.approx(1.5 - np.sqrt(0.75), abs=1e-9)
    assert rate["beta"] == pytest.approx(1.0, abs=1e-9)
    x0 = np.loadtxt(tmp_path / "out" / "trajectory.csv", delimiter=",", skiprows=1)[0, 1:]
    assert np.linalg.norm(x0) == pytest.approx(2.0, abs=1e-12)


def test_windowed_random_noise_at_margin_zero_runs(tmp_path, capsys):
    # 269 windows of 5 steps: window starts summed one zeta at a time drifted
    # 1.5e-13 from the noise's breakpoints, so each window took a sliver of
    # the next block and the construction check refused the noise it drew
    ring = [{"i": min(i, i % 6 + 1), "j": max(i, i % 6 + 1), "w": 1.0} for i in range(1, 7)]
    scn = tmp_path / "margin0.json"
    scn.write_text(json.dumps({
        "schedule": {"nodes": 6, "periodic": True, "period": 2.0, "segments": [
            {"t0": 0.0, "t1": 1.0, "edges": ring[0::2]},
            {"t0": 1.0, "t1": 2.0, "edges": ring[1::2]}]},
        "initial_state": [1.0, 0.0, -1.0, 2.0, 0.5, -0.5],
        "noise": {"kind": "windowed-random", "zeta": 0.10796672804772603,
                  "B0": 0.7951027054429824, "seed": 522306238, "steps_per_window": 5,
                  "margin": 0.0},
        "output_dir": "out",
        "tasks": [{"task": "robustness", "t_end": 30.0, "sample_dt": 0.5}],
    }))
    assert main(["validate", str(scn)]) == 0
    assert main(["run", str(scn)]) == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "robustness.json").read_text())
    assert report["B0"] == 0.7951027054429824


def test_windowed_random_noise_is_drawn_once_for_all_its_tasks(tmp_path, monkeypatch):
    draws = []
    draw = consensuslab.NoiseProcess.windowed_random
    monkeypatch.setattr(consensuslab.NoiseProcess, "windowed_random",
                        lambda *args, **kw: (draws.append(args), draw(*args, **kw))[1])
    data = _valid_scenario()
    data["noise"]["zeta"] = 0.7
    simulate = {"task": "simulate", "t_end": 6.3, "sample_dt": 0.1}
    robustness = {"task": "robustness", "t_end": 3.1, "sample_dt": 0.1}
    for label, tasks in (("both", [simulate, robustness]), ("simulate", [simulate]),
                         ("robustness", [robustness])):
        data["tasks"] = tasks
        scn = tmp_path / f"{label}.json"
        scn.write_text(json.dumps(data))
        draws.clear()
        assert main(["run", str(scn), "--output-dir", str(tmp_path / label)]) == 0
        assert len(draws) == 1, label
    # the noise to 6.3 holds the noise to 3.1 window by window
    for label, name in (("simulate", "trajectory.csv"), ("robustness", "robustness.json")):
        assert ((tmp_path / "both" / name).read_bytes()
                == (tmp_path / label / name).read_bytes()), name


def _too_few_samples_for_rate():
    data = _valid_scenario()
    del data["noise"]
    data["tasks"] = [{"task": "simulate", "t_end": 0.3, "sample_dt": 0.1}, {"task": "rate"}]
    return data


def test_rate_with_too_few_samples_exits_3_without_outputs(tmp_path, monkeypatch, capsys):
    scn = tmp_path / "short.json"
    scn.write_text(json.dumps(_too_few_samples_for_rate()))
    made = []
    mkdir = Path.mkdir
    monkeypatch.setattr(Path, "mkdir",
                        lambda self, *args, **kw: (made.append(self), mkdir(self, *args, **kw)))
    assert main(["run", str(scn), "--output-dir", str(tmp_path / "nested" / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "samples" in err, err
    # the failed task came before any write, so no directory was made and removed
    assert made == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["short.json"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_rate_from_a_consensus_start_writes_strict_json(tmp_path, capsys):
    # the noise drives the error up from e(t0) = 0, where beta has no value
    data = json.loads((SCENARIOS / "robust_noise.json").read_text())
    data["tasks"] = [{"task": "simulate", "t_end": 20.0, "sample_dt": 0.05}, {"task": "rate"}]
    scn = tmp_path / "consensus_start.json"
    scn.write_text(json.dumps(data))
    assert main(["run", str(scn), "--output-dir", str(tmp_path / "out")]) == 0
    rate = json.loads((tmp_path / "out" / "rate.json").read_text(), parse_constant=_reject_constant)
    # the noisy error never decays: its fitted log-drop is below the residual
    assert rate["beta"] is None and not rate["converged"]


def test_non_finite_report_value_exits_3_without_outputs(tmp_path, monkeypatch, capsys):
    fit = cli_module.analysis.fit_exponential_rate
    monkeypatch.setattr(cli_module.analysis, "fit_exponential_rate",
                        lambda *args, **kw: fit(*args, **kw)._replace(beta=float("nan")))
    code, _ = run_scenario("k2_constant", tmp_path, out_name="nested/out")
    assert code == 3
    assert "not JSON compliant" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k2_constant.json"]


def test_bad_input_found_by_a_task_exits_2_without_outputs(tmp_path, monkeypatch, capsys):
    # the exit code follows the class: a ConfigurationError is a bad input
    # (2) even where a task of the run, not validate, raises it
    def refuse(*args, **kw):
        raise ConfigurationError("trace does not cover the window")

    monkeypatch.setattr(cli_module.analysis, "fit_exponential_rate", refuse)
    code, _ = run_scenario("k2_constant", tmp_path, out_name="nested/out")
    assert code == 2
    assert capsys.readouterr().err == "scenario error: trace does not cover the window\n"
    # no output directory, no parent made for it and no .partial-* sibling
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k2_constant.json"]


def _refuse_manifest_writes(monkeypatch):
    write_json = cli_module._write_json

    def fail_on_manifest(path, payload):
        if path.name == "manifest.json":
            raise OSError(f"cannot write {path}")
        write_json(path, payload)

    monkeypatch.setattr(cli_module, "_write_json", fail_on_manifest)


def test_failed_run_leaves_previous_outputs_untouched(tmp_path, monkeypatch, capsys):
    code, out = run_scenario("k2_constant", tmp_path)
    assert code == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    scn = tmp_path / "short.json"
    scn.write_text(json.dumps(_too_few_samples_for_rate()))
    assert main(["run", str(scn), "--output-dir", str(out)]) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k2_constant.json", "out", "short.json"]
    capsys.readouterr()
    # a write that fails while publishing, into a fresh nested directory and into out
    _refuse_manifest_writes(monkeypatch)
    for target in (tmp_path / "nested" / "fresh", out):
        assert main(["run", str(tmp_path / "k2_constant.json"), "--output-dir", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: output directory {target}: cannot write"), err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["k2_constant.json", "out",
                                                              "short.json"]


def test_cleanup_stops_at_a_made_parent_it_cannot_remove(tmp_path, monkeypatch, capsys):
    # a failed write removes the parents made for it, innermost first; one
    # that is still there after rmdir holds something else, and so do its own
    removed = []

    def busy_rmdir(path):
        removed.append(path)
        raise OSError(f"busy: {path}")

    _refuse_manifest_writes(monkeypatch)
    monkeypatch.setattr(Path, "rmdir", busy_rmdir)
    target = tmp_path / "a" / "b" / "out"
    shutil.copy(SCENARIOS / "k2_constant.json", tmp_path)
    assert main(["run", str(tmp_path / "k2_constant.json"), "--output-dir", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"scenario error: output directory {target}: ")
    assert removed == [tmp_path / "a" / "b"]
    assert list((tmp_path / "a" / "b").iterdir()) == []


def _repeated_reports(last_start):
    """Three gramian and two reconstruct tasks on a path 1-2-3 that loses
    its edge 2-3 at t = 4; the last window starts at ``last_start``."""
    return {
        "schedule": {"nodes": 3, "segments": [
            {"t0": 0, "t1": 4, "edges": [{"i": 1, "j": 2, "w": 1.0}, {"i": 2, "j": 3, "w": 0.5}]},
            {"t0": 4, "t1": 8, "edges": [{"i": 1, "j": 2, "w": 1.0}]}]},
        "initial_state": [1.0, -1.0, 0.5],
        "tasks": [
            {"task": "simulate", "t_end": 8.0, "sample_dt": 0.01},
            *({"task": "gramian", "start": s, "delta": 1.0} for s in (0.0, 1.0, 2.5)),
            {"task": "reconstruct", "start": 0.5, "delta": 1.0},
            {"task": "reconstruct", "start": last_start, "delta": 2.0},
        ],
    }


def test_each_report_is_written_once_with_the_last_payload(tmp_path, monkeypatch, capsys):
    written = []
    write_json = cli_module._write_json
    monkeypatch.setattr(cli_module, "_write_json",
                        lambda path, payload: (written.append(path.name), write_json(path, payload)))
    for cls in (consensuslab.Trajectory, consensuslab.EdgeSignalTrace):
        monkeypatch.setattr(cls, "write_csv", lambda self, path, write_csv=cls.write_csv:
                            (written.append(path.name), write_csv(self, path)))
    scn = tmp_path / "repeated.json"
    scn.write_text(json.dumps(_repeated_reports(1.5)))
    assert main(["run", str(scn), "--output-dir", str(tmp_path / "out")]) == 0
    assert sorted(written) == ["edge_signals.csv", "gramian.json", "manifest.json",
                               "reconstruction.json", "trajectory.csv"]
    gram = json.loads((tmp_path / "out" / "gramian.json").read_text())
    rec = json.loads((tmp_path / "out" / "reconstruction.json").read_text())
    assert (gram["start"], rec["s"], rec["delta"]) == (2.5, 1.5, 2.0)
    # the same bytes as a run of the last two tasks alone
    data = _repeated_reports(1.5)
    data["tasks"] = [data["tasks"][i] for i in (0, 3, 5)]
    scn.write_text(json.dumps(data))
    assert main(["run", str(scn), "--output-dir", str(tmp_path / "last")]) == 0
    for name in ("gramian.json", "reconstruction.json"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "last" / name).read_bytes()
    # simulate, reconstruct, simulate, reconstruct: each CSV once, from the last two tasks
    simulate, reconstruct = data["tasks"][0], data["tasks"][2]
    resimulate = {**simulate, "t_end": 6.0, "sample_dt": 0.02}
    data["tasks"] = [simulate, reconstruct, resimulate, reconstruct]
    scn.write_text(json.dumps(data))
    written.clear()
    assert main(["run", str(scn), "--output-dir", str(tmp_path / "twice")]) == 0
    assert sorted(written) == ["edge_signals.csv", "manifest.json", "reconstruction.json",
                               "trajectory.csv"]
    data["tasks"] = data["tasks"][2:]
    scn.write_text(json.dumps(data))
    assert main(["run", str(scn), "--output-dir", str(tmp_path / "twice_last")]) == 0
    for name in ("edge_signals.csv", "reconstruction.json", "trajectory.csv"):
        assert ((tmp_path / "twice" / name).read_bytes()
                == (tmp_path / "twice_last" / name).read_bytes()), name
    # an unobservable last window: exit 3 after four reports were made, and no output
    scn.write_text(json.dumps(_repeated_reports(5.0)))
    assert main(["run", str(scn), "--output-dir", str(tmp_path / "failed")]) == 3
    assert "Gramian" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["last", "out", "repeated.json",
                                                          "twice", "twice_last"]


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


# reconstruction over a window that is never jointly connected
_UNOBSERVABLE = {
    "schedule": {"nodes": 3, "segments": [
        {"t0": 0, "t1": 5, "edges": [{"i": 1, "j": 2, "w": 1.0}]}]},
    "initial_state": [1.0, -1.0, 0.5],
    "tasks": [
        {"task": "simulate", "t_end": 5.0, "sample_dt": 0.01},
        {"task": "reconstruct", "start": 0.0, "delta": 5.0},
    ],
}


def test_math_domain_error_exits_3(tmp_path, capsys):
    scn = tmp_path / "unobservable.json"
    scn.write_text(json.dumps(_UNOBSERVABLE))
    assert main(["run", str(scn)]) == 3
    assert "Gramian" in capsys.readouterr().err
    # the last task fails: no nested output directory, parent or .partial-* sibling
    assert main(["run", str(scn), "--output-dir", str(tmp_path / "failed" / "out")]) == 3
    assert "Gramian" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["unobservable.json"]


@pytest.mark.parametrize("weight,x0,t_end,sample_dt,first", [
    (-1.0, [1.0, -1.0], 400.0, 1.0, 355.0),  # a signed edge: x grows as e^{2t}
    (1.0, [1.7e308, -1.7e308], 1.0, 0.5, 0.5),  # Q'x overflows on the first step
])
def test_state_that_overflows_exits_3_without_outputs(tmp_path, capsys, weight, x0, t_end,
                                                      sample_dt, first):
    scn = tmp_path / "overflow.json"
    scn.write_text(json.dumps({
        "schedule": {"nodes": 2, "periodic": True, "segments": [
            {"t0": 0, "t1": 1, "edges": [{"i": 1, "j": 2, "w": weight}]}]},
        "initial_state": x0,
        "tasks": [{"task": "simulate", "t_end": t_end, "sample_dt": sample_dt}],
    }))
    assert main(["validate", str(scn)]) == 0
    assert main(["run", str(scn), "--output-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        f"error: the state overflows: not finite from t = {first} on\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["overflow.json"]


# scenarios whose tables hold 1e15 or more elements: numpy refuses each before
# it allocates anything.  (scenario, validate's exit code, stderr of run)
ALLOCATIONS = {
    # validate builds no grid for a simulate task alone
    "simulate-sample-dt-1e-14": (_golden_with("k2_constant", _set(["tasks"], [
        {"task": "simulate", "t_end": 10.0, "sample_dt": 1e-14}])), 0,
        "scenario error: Unable to allocate "),
    # validate builds the grid a rate task reads
    "rate-grid-sample-dt-1e-14": (_golden_with("k2_constant",
                                               _set(["tasks", 0, "sample_dt"], 1e-14)), 2,
                                  "scenario error: Unable to allocate "),
    "windowed-random-zeta-1e-14": (_golden_with("robust_noise", _set(["noise", "zeta"], 1e-14)),
                                   2, "scenario error: Unable to allocate "),
    # 1e291 steps: a finite count, but past 2**53 no float counts steps exactly
    "simulate-sample-dt-1e-290": (_golden_with("k2_constant", _set(["tasks"], [
        {"task": "simulate", "t_end": 10.0, "sample_dt": 1e-290}])), 2,
        "scenario error: task 'simulate': 10.0 / 1e-290 is 1e+291 steps, 2**53 or more\n"),
}


@pytest.mark.parametrize("case", sorted(ALLOCATIONS))
def test_scenario_too_big_to_allocate_exits_2_without_outputs(tmp_path, capsys, case):
    data, validate_code, message = ALLOCATIONS[case]
    scn = tmp_path / "big.json"
    scn.write_text(json.dumps(data))
    assert main(["validate", str(scn)]) == validate_code
    validate_err = capsys.readouterr().err
    assert main(["run", str(scn), "--output-dir", str(tmp_path / "nested" / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1 and "Traceback" not in err, err
    assert validate_err in ("", err)
    assert [p.name for p in tmp_path.iterdir()] == ["big.json"]


def _near_limit(task):
    """A unit edge from [1e308, -1e308]: the state is finite, but its norm and
    its edge signal x_2 - x_1 are beyond the float range until t ~ 0.05."""
    return {
        "schedule": {"nodes": 2, "segments": [
            {"t0": 0, "t1": 1, "edges": [{"i": 1, "j": 2, "w": 1.0}]}]},
        "initial_state": [1e308, -1e308],
        "tasks": [{"task": "simulate", "t_end": 1.0, "sample_dt": 0.01}, task],
    }


def test_edge_signals_that_overflow_exit_3_without_outputs(tmp_path, capsys):
    scn = tmp_path / "overflow.json"
    scn.write_text(json.dumps(_near_limit({"task": "reconstruct", "start": 0.0, "delta": 1.0})))
    assert main(["validate", str(scn)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(scn), "--output-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "error: the edge signals overflow: not finite at t = 0.0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["overflow.json"]


def test_rate_from_a_state_near_the_float_limit(tmp_path):
    # ||x(0)|| overflows; the error floor is taken from the rescaled norm
    scn = tmp_path / "near_limit.json"
    scn.write_text(json.dumps(_near_limit({"task": "rate"})))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(scn), "--output-dir", str(tmp_path / "out")]) == 0
    rate = json.loads((tmp_path / "out" / "rate.json").read_text())
    assert abs(rate["alpha"] - 2.0) <= 1e-9
    assert rate["window"] == [0.5, 1.0] and rate["sample_count"] == 51


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


def test_signed_reconstruct_violating_the_negative_link_assumption_exits_3(tmp_path, capsys):
    # validate takes the signed schedule; the run's Gramian refuses it and writes nothing
    scn = tmp_path / "nla.json"
    scn.write_text(json.dumps({
        "schedule": {"nodes": 3, "segments": [
            {"t0": 0, "t1": 5, "edges": [{"i": 1, "j": 2, "w": 1.0}, {"i": 1, "j": 3, "w": 1.0},
                                         {"i": 2, "j": 3, "w": -1.0}]}]},
        "initial_state": [1.0, -1.0, 0.5],
        "tasks": [{"task": "simulate", "t_end": 5.0, "sample_dt": 0.01},
                  {"task": "reconstruct", "start": 0.0, "delta": 2.0}],
    }))
    assert main(["validate", str(scn)]) == 0
    assert main(["run", str(scn), "--output-dir", str(tmp_path / "out")]) == 3
    assert "Negative-Link Assumption violated" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["nla.json"]


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
# numpy 1.x imports numpy.ma with numpy itself; numpy 2 loads it on first use
ma_before = "numpy.ma" in sys.modules
code = consensuslab.cli.main(sys.argv[1:])
# dynamics._sorted_distinct stands in for np.unique, whose first call imports numpy.ma
assert ma_before or "numpy.ma" not in sys.modules
sys.exit(code)
"""


def _python(*args):
    """Run ``python *args`` in a fresh process that imports this package."""
    src = str(Path(consensuslab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_runs_without_scipy(tmp_path, name):
    proc = _python("-c", _RUN_WITHOUT_SCIPY, "run", str(SCENARIOS / f"{name}.json"),
                   "--output-dir", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "manifest.json").is_file()


# (command, scenario, output directory under tmp_path, "" for an empty
# --output-dir or None for none, exit code, start of stderr) of
# `python -m consensuslab`
ENTRY_POINT = {
    "validate-golden": ("validate", json.loads((SCENARIOS / "k2_constant.json").read_text()),
                        None, 0, ""),
    "validate-malformed": ("validate", _valid_scenario() | {"schedules": {}}, None, 2,
                           "scenario error: unknown scenario fields: ['schedules']\n"),
    "run-unobservable-nested": ("run", _UNOBSERVABLE, "failed/out", 3,
                                "error: Gramian eigenvalue "),
    # an empty directory is refused, not read as the scenario's own or its directory
    "run-empty-output-dir-flag": ("run", json.loads((SCENARIOS / "k2_constant.json").read_text()),
                                  "", 2, "scenario error: --output-dir must name a directory, "
                                  "got ''\n"),
    "run-empty-output-dir-field": ("run", json.loads((SCENARIOS / "k2_constant.json").read_text())
                                   | {"output_dir": ""}, None, 2,
                                   "scenario error: 'output_dir' must name a directory, got ''\n"),
}


@pytest.mark.parametrize("case", sorted(ENTRY_POINT))
def test_module_entry_point_exit_codes(tmp_path, case):
    # __main__.py hands main's code to the shell, with no traceback
    command, data, out, code, err = ENTRY_POINT[case]
    scn = tmp_path / "scenario.json"
    scn.write_text(json.dumps(data))
    output = [] if out is None else ["--output-dir", str(tmp_path / out) if out else ""]
    proc = _python("-m", "consensuslab", command, str(scn), *output)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(err) and "Traceback" not in proc.stderr, proc.stderr
    assert [p.name for p in tmp_path.rglob("*")] == ["scenario.json"]


def test_validate_command(tmp_path, capsys):
    code = main(["validate", str(SCENARIOS / "k2_constant.json")])
    assert code == 0
    assert "valid" in capsys.readouterr().out
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def test_list_tasks_text():
    text = list_tasks()
    for name in ("simulate", "connectivity", "bounds", "gramian",
                 "reconstruct", "rate", "robustness"):
        assert name + ":" in text
    single = list_tasks("simulate")
    assert "t_end (required)" in single
    with pytest.raises(ConfigurationError, match="did you mean"):
        list_tasks("gramian2")


def test_list_tasks_cli(capsys):
    assert main(["list-tasks"]) == 0
    out = capsys.readouterr().out
    assert "reconstruct:" in out
    assert main(["list-tasks", "--task", "simulate"]) == 0
    assert "sample_dt" in capsys.readouterr().out
    assert main(["list-tasks", "--task", "nope"]) == 2
    capsys.readouterr()
    assert main(["list-tasks", "--task", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unknown task ''" in captured.err


# the keys of each JSON report; the records' field names reach them unchanged
REPORT_KEYS = {
    "bounds.json": {"delta", "alpha1", "alpha2", "observable", "worst_window_start",
                    "gramian_floor", "certified_rate"},
    "certificate.json": {"delta", "T", "verdict", "counterexample_window", "windows"},
    "gramian.json": {"start", "delta", "lambda_min", "lambda_max"},
    "manifest.json": {"scenario", "seed", "tasks", "artifacts"},
    "rate.json": {"alpha", "beta", "window", "residual", "sample_count", "converged"},
    "reconstruction.json": {"s", "delta", "lambda_min", "estimate", "error_vs_truth"},
    "robustness.json": {"zeta", "B0", "sup_error", "C_bound", "t_end", "sample_times", "errors"},
}


def test_report_keys_are_pinned(tmp_path):
    # between them the three goldens run every task kind
    seen = set()
    for name in ("alternating_triangle", "five_node_reconstruct", "robust_noise"):
        code, out = run_scenario(name, tmp_path, out_name=name)
        assert code == 0, name
        for path in out.glob("*.json"):
            assert set(json.loads(path.read_text())) == REPORT_KEYS[path.name], (name, path.name)
            seen.add(path.name)
    assert seen == set(REPORT_KEYS)


def test_flags_live_in_json_not_exit_code(tmp_path):
    # non-convergence is a flagged result, not a failure
    code, out = run_scenario("isolated_node", tmp_path)
    assert code == 0
    rate = json.loads((out / "rate.json").read_text())
    assert rate["alpha"] < 1e-3 and not rate["converged"]
    bounds = json.loads((out / "bounds.json").read_text())
    assert not bounds["observable"]
    assert bounds["gramian_floor"] is None and bounds["certified_rate"] is None
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "not_connected"
    assert cert["counterexample_window"] is not None
    check_certificate(load_scenario(tmp_path / "isolated_node.json").schedule, 0.01, 20.0, cert)
