"""Tests of the benchmark itself: python -m pytest bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import scenarios
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_scenarios_depend_on_the_seed_alone(tmp_path, workload):
    files = {}
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        ops = scenarios.generate(workload, seed, tmp_path / tag, run.GOLDEN_DIR)
        files[tag] = {op.path.name: op.path.read_bytes() for op in ops}
    assert files["a"] == files["b"]
    assert files["a"] != files["c"]


def test_metric_tables_match_benchmark_json():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} <= set(scenarios.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = _run("observe_window", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_smoke_pass_checks_every_output(tmp_path, workload):
    bench = run.Bench(workload, 5, tmp_path)
    cli = run._import_cli()
    for op in bench.ops:
        _, code, err = bench.warm(op, cli)
        bench.judge(op, code, err)
    assert bench.attempted == len(bench.valid)
    assert bench.attempted + bench.probed == len(bench.ops)
    assert bench.correct and bench.failed == 0, bench.problems
    assert all(bench.verified[op.name] for op in bench.ops if op.expect == "ok")


def test_checks_reject_a_wrong_trajectory(tmp_path):
    bench = run.Bench("long_horizon", 5, tmp_path)
    op = bench.ops[0]
    _, code, err = bench.warm(op, run._import_cli())
    path = bench.out_dir(op) / "trajectory.csv"
    lines = path.read_text().splitlines()
    row = lines[len(lines) // 2].split(",")
    row[1] = repr(float(row[1]) + 1e-6)
    lines[len(lines) // 2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert not bench.judge(op, code, err)
    assert not bench.correct


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("golden_cli", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, None, (0, "op")],
        ["inner", 1.0, 4.0, 0, (0, "op")],
        ["inner", 5.0, 6.0, 0, (0, "op")],
        ["leaf", 2.0, 3.0, 1, (0, "op")],
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_importtime_attribution():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        20 |         20 |         numpy.extra",
        "import time:        30 |         50 |       scipy",
        "import time:        10 |         60 |     scipy.integrate",
        "import time:        40 |        250 |   consensuslab.graph",
        "import time:         5 |        255 | consensuslab",
        "import time:         7 |          7 | consensuslab.cli",
    ])
    got = tracing.parse_importtime(text)
    assert got == pytest.approx({"total": 262e-6, "scipy": 60e-6, "numpy": 150e-6})


def test_exponent_fit():
    assert tracing.fit_exponent([1, 2, 4], [3, 12, 48]) == pytest.approx(2.0)
    assert tracing.fit_exponent([200, 200], [1.0, 2.0]) == 0.0
