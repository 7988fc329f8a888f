"""Scenario-driven command line front end.

A scenario file is a JSON object naming a weight schedule, an initial
state, optional noise, and an ordered task list.  Tasks write trajectory
and edge-signal CSVs plus JSON reports into the scenario's output
directory.  Runs are deterministic: the same scenario and seed produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import analysis, dynamics, graph, observability
from .errors import ConsensusLabError, ScenarioError

OUTPUT_DIR_ENV = "CONSENSUSLAB_OUTPUT_DIR"

# still accepted on connectivity and bounds, so that older scenarios validate
STRIDE_DOC = "ignored: the window starts follow from the schedule"

# task name -> (required params, optional params with defaults, summary)
TASKS = {
    "simulate": (
        {"t_end": "end time of the run", "sample_dt": "output sample step"},
        {},
        "integrate the dynamics from the scenario initial state "
        "(with the scenario noise, when declared) and write trajectory.csv",
    ),
    "connectivity": (
        {"delta": "minimum per-edge window integral", "T": "window length"},
        {"stride": (STRIDE_DOC, None)},
        "certify joint (delta, T)-connectivity over all window starts, certificate.json",
    ),
    "bounds": (
        {"delta": "observation window length"},
        {"stride": (STRIDE_DOC, None)},
        "exact uniform observability bounds alpha1/alpha2 over all starts, bounds.json",
    ),
    "gramian": (
        {"start": "window start", "delta": "window length"},
        {},
        "observability Gramian spectrum on one window, gramian.json",
    ),
    "reconstruct": (
        {"start": "window start", "delta": "window length"},
        {"cond_tol": ("Gramian eigenvalue cutoff", 1e-8)},
        "extract edge signals from the simulated trajectory, reconstruct the "
        "shifted state, write edge_signals.csv and reconstruction.json "
        "(requires a prior simulate task)",
    ),
    "rate": (
        {},
        {"skip_time": ("transient seconds to drop", 0.0),
         "fit_dt": ("restrict fit samples to this grid", None)},
        "fit the exponential consensus rate of the simulated trajectory, "
        "rate.json (requires a prior simulate task)",
    ),
    "robustness": (
        {"t_end": "end time of the run"},
        {"sample_dt": ("output sample step", 0.05)},
        "run from consensus under the scenario noise and report the "
        "sup consensus error, robustness.json (requires scenario noise)",
    ),
}

# parameters that are lengths of time or steps, wherever they appear
POSITIVE_PARAMS = ("t_end", "sample_dt", "delta", "T", "stride", "fit_dt", "zeta")

NOISE_KINDS = ("zero", "table", "windowed-random")


def _fail(msg):
    raise ScenarioError(msg)


def _require_number(params, key, where):
    v = params.get(key)
    if not graph._is_number(v):
        _fail(f"{where}: parameter '{key}' must be a finite number, got {v!r}")
    if key in POSITIVE_PARAMS and v <= 0:
        _fail(f"{where}: parameter '{key}' must be positive, got {v!r}")
    return float(v)


def _optional_number(params, key, where, default):
    return _require_number(params, key, where) if key in params else default


def _optional_seed(params, where):
    v = params.get("seed")
    if v is not None and (isinstance(v, bool) or not isinstance(v, int) or v < 0):
        _fail(f"{where}: 'seed' must be a nonnegative integer, got {v!r}")
    return v


class Scenario:
    """Validated scenario: schedule, initial state, noise spec, task list."""

    def __init__(self, data, base_dir):
        if not isinstance(data, dict):
            _fail("scenario must be a JSON object")
        self.name = data.get("name", "scenario")
        self.seed = _optional_seed(data, "scenario")
        self.base_dir = Path(base_dir)
        self.output_dir = data.get("output_dir", "out")
        for key in ("name", "output_dir"):
            if not isinstance(getattr(self, key), str):
                _fail(f"'{key}' must be a string")

        known = {"name", "seed", "schedule", "schedule_file", "initial_state",
                 "noise", "output_dir", "tasks"}
        unknown = set(data) - known
        if unknown:
            _fail(f"unknown scenario fields: {sorted(unknown)}")

        self.schedule = self._load_schedule(data)
        self.initial_state = self._resolve_initial_state(data)
        self.noise_spec = self._validate_noise(data.get("noise"))
        self.tasks = self._validate_tasks(data.get("tasks"))

    # -- validation ---------------------------------------------------------

    def _load_schedule(self, data):
        if ("schedule" in data) == ("schedule_file" in data):
            _fail("scenario needs exactly one of 'schedule' or 'schedule_file'")
        try:
            if "schedule" in data:
                return graph.schedule_from_dict(data["schedule"], name=self.name)
            if not isinstance(data["schedule_file"], str):
                _fail(f"'schedule_file' must be a string, got {data['schedule_file']!r}")
            path = self.base_dir / data["schedule_file"]
            if not path.is_file():
                _fail(f"schedule file not found: {path}")
            return graph.load_schedule(path)
        except ConsensusLabError as exc:
            raise ScenarioError(f"invalid schedule: {exc}") from exc

    def _seed_child(self, index):
        if self.seed is None:
            _fail("scenario uses randomness but declares no 'seed'")
        return np.random.SeedSequence(self.seed).spawn(2)[index]

    def _resolve_initial_state(self, data):
        spec = data.get("initial_state")
        n = self.schedule.node_count
        if spec is None:
            _fail("scenario is missing 'initial_state'")
        if isinstance(spec, list):
            if len(spec) != n or not all(graph._is_number(v) for v in spec):
                _fail(f"'initial_state' must list {n} finite numbers")
            return np.asarray(spec, dtype=float)
        if not isinstance(spec, dict) or "kind" not in spec:
            _fail("'initial_state' must be a vector or an object with 'kind'")
        kind = spec["kind"]
        scale = _optional_number(spec, "scale", "initial_state", 1.0)
        if kind == "consensus":
            return np.full(n, _optional_number(spec, "value", "initial_state", 0.0))
        if kind == "seeded-random":
            seed = _optional_seed(spec, "initial_state")
            rng = np.random.default_rng(seed if seed is not None else self._seed_child(0))
            return scale * rng.standard_normal(n)
        if kind == "eigvector":
            seg = spec.get("segment", 1)
            idx = spec.get("index", 2)
            count = len(self.schedule.segments)
            if isinstance(seg, bool) or not isinstance(seg, int) or not 1 <= seg <= count:
                _fail(f"eigvector initial state: 'segment' must be 1..{count}")
            if isinstance(idx, bool) or not isinstance(idx, int) or not 1 <= idx <= n:
                _fail(f"eigvector initial state: 'index' must be 1..{n}")
            _, vecs = self.schedule.spectrum(seg - 1)
            return scale * vecs[:, idx - 1]
        _fail(f"unknown initial_state kind {kind!r}")

    def _validate_noise(self, spec):
        if spec is None:
            return None
        if not isinstance(spec, dict) or spec.get("kind") not in NOISE_KINDS:
            _fail(f"noise 'kind' must be one of {NOISE_KINDS}")
        kind = spec["kind"]
        if kind != "zero":
            for key in ("zeta", "B0"):
                _require_number(spec, key, "noise")
            if spec["B0"] < 0:
                _fail(f"noise: parameter 'B0' must be nonnegative, got {spec['B0']!r}")
        if kind == "table":
            if "breakpoints" not in spec or "values" not in spec:
                _fail("table noise needs 'breakpoints' and 'values'")
            try:
                dynamics.NoiseProcess.table(
                    spec["breakpoints"], spec["values"], spec["zeta"], spec["B0"]
                )
            except (ConsensusLabError, TypeError, ValueError) as exc:
                _fail(f"invalid table noise: {exc}")
            width = np.asarray(spec["values"]).shape[1]
            if width != self.schedule.node_count:
                _fail(f"noise values are {width} wide for a {self.schedule.node_count}-node schedule")
        if kind == "windowed-random":
            if _optional_seed(spec, "noise") is None and self.seed is None:
                _fail("windowed-random noise needs a 'seed' (or a scenario seed)")
            if not 0 <= _optional_number(spec, "margin", "noise", 0.05) < 1:
                _fail(f"noise: parameter 'margin' must lie in [0, 1), got {spec['margin']!r}")
            steps = spec.get("steps_per_window", 4)
            if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
                _fail(f"noise: parameter 'steps_per_window' must be a positive integer, "
                      f"got {steps!r}")
        return spec

    def _validate_tasks(self, tasks):
        if not isinstance(tasks, list) or not tasks:
            _fail("scenario needs a non-empty 'tasks' list")
        seen_simulate = False
        validated = []
        for entry in tasks:
            if not isinstance(entry, dict) or "task" not in entry:
                _fail("each task must be an object with a 'task' name")
            name = entry["task"]
            if not isinstance(name, str) or name not in TASKS:
                hint = difflib.get_close_matches(str(name), TASKS, n=1)
                suffix = f"; did you mean '{hint[0]}'?" if hint else ""
                _fail(f"unknown task {name!r}{suffix}")
            required, optional, _ = TASKS[name]
            params = {k: v for k, v in entry.items() if k != "task"}
            unknown = set(params) - set(required) - set(optional)
            if unknown:
                _fail(f"task '{name}': unknown parameters {sorted(unknown)}")
            for key in required:
                if key not in params:
                    _fail(f"task '{name}': missing required parameter '{key}'")
            for key in params:
                _require_number(params, key, f"task '{name}'")
            if name in ("reconstruct", "rate") and not seen_simulate:
                _fail(f"task '{name}' needs a preceding simulate task")
            if name == "robustness" and self.noise_spec is None:
                _fail("task 'robustness' needs a scenario 'noise' entry")
            if name == "simulate":
                seen_simulate = True
            validated.append((name, params))
        return validated

    # -- noise construction --------------------------------------------------

    def build_noise(self, t_end):
        spec = self.noise_spec
        if spec is None or spec["kind"] == "zero":
            return dynamics.NoiseProcess.zero(self.schedule.node_count)
        if spec["kind"] == "table":
            return dynamics.NoiseProcess.table(
                spec["breakpoints"], spec["values"], spec["zeta"], spec["B0"]
            )
        seed = spec.get("seed")
        return dynamics.NoiseProcess.windowed_random(
            self.schedule.node_count,
            spec["zeta"],
            spec["B0"],
            seed if seed is not None else self._seed_child(1),
            t_end,
            steps_per_window=spec.get("steps_per_window", 4),
            margin=float(spec.get("margin", 0.05)),
        )


def _numpy_to_json(obj):
    # json calls this only for what it cannot encode itself
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path, payload):
    """Write payload as sorted-key, 2-space-indented JSON plus a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_numpy_to_json)
        fh.write("\n")


class _Runner:
    def __init__(self, scenario, out_dir):
        self.scenario = scenario
        self.out_dir = Path(out_dir)
        self.trajectory = None
        self.trace = None  # edge signals of this trajectory, written to edge_signals.csv
        self.artifacts = []

    def emit_json(self, name, payload):
        _write_json(self.out_dir / name, payload)
        self.artifacts.append(name)

    def run(self):
        """Run every task into a fresh sibling directory, then publish it.

        The outputs appear under the output directory only once every task
        has succeeded: the staging directory is renamed into place (or, when
        the output directory already exists, its files are moved in with the
        manifest last).  On failure the staging directory and any parent
        directories created for it are removed.
        """
        final = self.out_dir
        created = [p for p in reversed(final.parents) if not p.exists()]
        final.parent.mkdir(parents=True, exist_ok=True)
        self.out_dir = final.parent / f".{final.name}.partial-{os.getpid()}-{os.urandom(4).hex()}"
        self.out_dir.mkdir()
        try:
            for name, params in self.scenario.tasks:
                getattr(self, "task_" + name)(**params)
            self.emit_json("manifest.json", {
                "scenario": self.scenario.name,
                "seed": self.scenario.seed,
                "tasks": [name for name, _ in self.scenario.tasks],
                "artifacts": sorted(set(self.artifacts)),
            })
            if final.exists():
                # the manifest, which marks a complete run, goes last
                for name in sorted(set(self.artifacts), key=lambda a: a == "manifest.json"):
                    os.replace(self.out_dir / name, final / name)
                self.out_dir.rmdir()
            else:
                self.out_dir.rename(final)
        except BaseException:
            shutil.rmtree(self.out_dir, ignore_errors=True)
            for parent in reversed(created):
                try:
                    parent.rmdir()
                except OSError:
                    break
            raise
        finally:
            self.out_dir = final

    def task_simulate(self, t_end, sample_dt):
        sc = self.scenario
        noise = sc.build_noise(t_end) if sc.noise_spec is not None else None
        self.trajectory = dynamics.simulate(
            sc.schedule,
            dynamics.StateVector(0.0, sc.initial_state),
            t_end,
            sample_dt,
            noise=noise,
        )
        self.trace = None
        self.trajectory.write_csv(self.out_dir / "trajectory.csv")
        self.artifacts.append("trajectory.csv")

    def task_connectivity(self, delta, T, stride=None):
        cert = graph.check_joint_connectivity(self.scenario.schedule, delta, T)
        self.emit_json("certificate.json", cert.as_dict())

    def task_bounds(self, delta, stride=None):
        bounds = observability.uniform_bounds_check(self.scenario.schedule, delta)
        self.emit_json("bounds.json", {
            "delta": delta,
            "alpha1": bounds.alpha1,
            "alpha2": bounds.alpha2,
            "observable": bounds.observable,
            "worst_window_start": bounds.worst_window_start,
        })

    def task_gramian(self, start, delta):
        gram = observability.gramian(self.scenario.schedule, start, delta)
        self.emit_json("gramian.json", {
            "start": gram.start,
            "delta": gram.delta,
            "lambda_min": gram.lambda_min,
            "lambda_max": gram.lambda_max,
        })

    def task_reconstruct(self, start, delta, cond_tol=1e-8):
        sc = self.scenario
        if self.trace is None:
            self.trace = observability.edge_signals(self.trajectory, sc.schedule)
            self.trace.write_csv(self.out_dir / "edge_signals.csv")
            self.artifacts.append("edge_signals.csv")
        estimate = observability.reconstruct(self.trace, sc.schedule, start, delta, cond_tol=cond_tol)
        gram = observability.gramian(sc.schedule, start, delta)
        report = {
            "s": start,
            "delta": delta,
            "lambda_min": gram.lambda_min,
            "estimate": estimate,
        }
        idx = self.trajectory.index_at(start)
        if idx is not None:
            truth = self.trajectory.states[idx] - self.trajectory.initial_average
            report["error_vs_truth"] = float(np.linalg.norm(estimate - truth))
        self.emit_json("reconstruction.json", report)

    def task_rate(self, skip_time=0.0, fit_dt=None):
        fit = analysis.fit_exponential_rate(self.trajectory, skip_time=skip_time, fit_dt=fit_dt)
        self.emit_json("rate.json", {
            "alpha": fit.alpha,
            "beta": fit.beta,
            "residual": fit.residual,
            "window": list(fit.window),
            "sample_count": fit.sample_count,
            "converged": fit.converged,
        })

    def task_robustness(self, t_end, sample_dt=0.05):
        sc = self.scenario
        noise = sc.build_noise(t_end)
        report = analysis.robustness_report(sc.schedule, noise, t_end, sample_dt=sample_dt)
        self.emit_json("robustness.json", {
            "zeta": report.zeta,
            "B0": report.energy_bound,
            "sup_error": report.sup_error,
            "C_bound": report.sup_error,
            "t_end": t_end,
            "sample_times": report.sample_times,
            "errors": report.errors,
        })


def load_scenario(path):
    path = Path(path)
    if not path.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return Scenario(data, path.parent)


def _resolve_output_dir(scenario, flag_value):
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return scenario.base_dir / scenario.output_dir


def list_tasks(task=None):
    """Stable help text enumerating the tasks and their parameters."""
    names = [task] if task else sorted(TASKS)
    if task and task not in TASKS:
        hint = difflib.get_close_matches(task, TASKS, n=1)
        suffix = f"; did you mean '{hint[0]}'?" if hint else ""
        raise ScenarioError(f"unknown task {task!r}{suffix}")
    lines = []
    for name in names:
        required, optional, summary = TASKS[name]
        lines.append(f"{name}: {summary}")
        for key, doc in required.items():
            lines.append(f"  {key} (required): {doc}")
        for key, (doc, default) in optional.items():
            lines.append(f"  {key} (default {default}): {doc}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="consensuslab",
        description="Simulate and analyze continuous-time consensus dynamics "
        "over time-varying and signed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to the scenario JSON file")
    run_p.add_argument("--output-dir", help=f"override the output directory (also {OUTPUT_DIR_ENV})")
    val_p = sub.add_parser("validate", help="check a scenario file without running it")
    val_p.add_argument("scenario", help="path to the scenario JSON file")
    lt_p = sub.add_parser("list-tasks", help="describe the available tasks")
    lt_p.add_argument("--task", help="show a single task's parameters")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-tasks":
            sys.stdout.write(list_tasks(args.task))
            return 0
        scenario = load_scenario(args.scenario)
        if args.command == "validate":
            print(f"scenario '{scenario.name}' is valid "
                  f"({scenario.schedule.node_count} nodes, {len(scenario.tasks)} tasks)")
            return 0
        try:
            _Runner(scenario, _resolve_output_dir(scenario, args.output_dir)).run()
        except ValueError as exc:
            # the scenario validated, so a failed domain check is a math error
            raise ConsensusLabError(str(exc)) from exc
        return 0
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except ConsensusLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
