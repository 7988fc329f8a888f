"""Scenario-driven command line front end.

A scenario file is a JSON object naming a weight schedule, an initial
state, optional noise, and an ordered task list.  Tasks return trajectory
and edge-signal CSVs plus JSON reports, which the run writes into the
scenario's output directory after the last task.  Runs are deterministic:
the same scenario and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import json
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import analysis, dynamics, graph, observability
from .errors import ConfigurationError, ConsensusLabError

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

# parameters that must be positive wherever they appear: lengths of time or
# steps, and the Gramian eigenvalue cutoff
POSITIVE_PARAMS = ("t_end", "sample_dt", "delta", "T", "stride", "fit_dt", "zeta", "cond_tol")

# kind -> the fields that a noise or initial_state object of that kind may carry
NOISE_FIELDS = {"zero": {"kind"}, "table": {"kind", "zeta", "B0", "breakpoints", "values"},
                "windowed-random": {"kind", "zeta", "B0", "seed", "margin", "steps_per_window"}}
NOISE_KINDS = tuple(NOISE_FIELDS)  # a tuple, so that an unhashable kind is refused, not raised
INITIAL_STATE_FIELDS = {"consensus": {"kind", "value"}, "seeded-random": {"kind", "seed", "scale"},
                        "eigvector": {"kind", "segment", "index", "scale"}}


def _task_end(name, params):
    """Latest schedule time a task reads, or None for tasks that read none."""
    if name in ("simulate", "robustness"):
        return params["t_end"]
    if name in ("gramian", "reconstruct"):
        return params["start"] + params["delta"]
    if name == "connectivity":
        return params["T"]
    if name == "bounds":
        return params["delta"]
    return None


def _fail(msg):
    raise ConfigurationError(msg)


def _unknown_task(name):
    hint = difflib.get_close_matches(str(name), TASKS, n=1)
    _fail(f"unknown task {name!r}" + (f"; did you mean '{hint[0]}'?" if hint else ""))


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
    """Validated scenario: schedule, initial state, noise, task list."""

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
        if not self.output_dir:
            _fail("'output_dir' must name a directory, got ''")
        try:  # a path the OS takes: encodable to bytes, with no NUL byte
            if b"\0" in os.fsencode(self.output_dir):
                _fail("'output_dir' must not contain a NUL character")
        except UnicodeEncodeError as exc:
            _fail(f"'output_dir' is not a valid path: {exc}")

        graph._refuse_unknown(data, {"name", "seed", "schedule", "schedule_file",
                                     "initial_state", "noise", "output_dir", "tasks"}, "scenario")

        self.schedule = self._load_schedule(data)
        self.initial_state = self._resolve_initial_state(data)
        self.noise_spec = data.get("noise")
        self.tasks = self._validate_tasks(data.get("tasks"))
        self.noise = self._build_noise(self.noise_spec)

    # -- validation ---------------------------------------------------------

    def _load_schedule(self, data):
        if ("schedule" in data) == ("schedule_file" in data):
            _fail("scenario needs exactly one of 'schedule' or 'schedule_file'")
        try:
            if "schedule" in data:
                return graph.schedule_from_dict(data["schedule"])
            if not isinstance(data["schedule_file"], str):
                _fail(f"'schedule_file' must be a string, got {data['schedule_file']!r}")
            path = self.base_dir / data["schedule_file"]
            if not path.is_file():
                _fail(f"schedule file not found: {path}")
            return graph.load_schedule(path)
        except (ConsensusLabError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"invalid schedule: {exc}") from exc

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
        if not isinstance(kind, str) or kind not in INITIAL_STATE_FIELDS:
            _fail(f"unknown initial_state kind {kind!r}")
        graph._refuse_unknown(spec, INITIAL_STATE_FIELDS[kind], "initial_state")
        if kind == "consensus":
            return np.full(n, _optional_number(spec, "value", "initial_state", 0.0))
        if kind == "seeded-random":
            seed = _optional_seed(spec, "initial_state")
            rng = np.random.default_rng(seed if seed is not None else self._seed_child(0))
            return scale * rng.standard_normal(n)
        seg = spec.get("segment", 1)
        idx = spec.get("index", 2)
        count = len(self.schedule.segments)
        if isinstance(seg, bool) or not isinstance(seg, int) or not 1 <= seg <= count:
            _fail(f"eigvector initial state: 'segment' must be 1..{count}")
        if isinstance(idx, bool) or not isinstance(idx, int) or not 1 <= idx <= n:
            _fail(f"eigvector initial state: 'index' must be 1..{n}")
        _, vecs = self.schedule.spectrum(seg - 1)
        return scale * vecs[:, idx - 1]

    def _validate_tasks(self, tasks):
        if not isinstance(tasks, list) or not tasks:
            _fail("scenario needs a non-empty 'tasks' list")
        # the latest simulate task's t_end, and its sample times once needed
        sim_end = sim_grid = None
        validated = []
        for entry in tasks:
            if not isinstance(entry, dict) or "task" not in entry:
                _fail("each task must be an object with a 'task' name")
            name = entry["task"]
            if not isinstance(name, str) or name not in TASKS:
                _unknown_task(name)
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
            for key, (_, default) in optional.items():
                params.setdefault(key, default)
            end = _task_end(name, params)
            if name == "gramian" and params["start"] < 0.0:
                _fail(f"task 'gramian': window start {params['start']} is before the schedule "
                      "start")
            if end is not None:
                try:
                    self.schedule.segment_index_at(end)
                    if name in ("simulate", "robustness"):
                        dynamics._step_count(end, params["sample_dt"])
                except ConfigurationError as exc:
                    _fail(f"task '{name}': {exc}")
            if name in ("reconstruct", "rate") and sim_end is None:
                _fail(f"task '{name}' needs a preceding simulate task")
            if sim_grid is None and name in ("reconstruct", "rate"):
                sim_grid = dynamics._sample_grid(self.schedule, sim_end, sim_dt)[0]
            if name == "reconstruct":
                outside = (f"task 'reconstruct': window [{params['start']}, {end}] is not "
                           f"inside the simulated [0, {sim_end}]")
                if params["start"] < 0.0:
                    _fail(outside)
                try:  # reconstruct's own check, on the run's sample grid
                    observability._window_nodes(sim_grid, self.schedule, params["start"],
                                                params["delta"])
                except ConfigurationError as exc:
                    # the grid decides the upper end, which may round an ulp past t_end
                    _fail(outside if end > sim_end else f"task 'reconstruct': {exc}")
            if name == "rate":
                # the fit reads the samples of the run from skip_time on (on the
                # multiples of fit_dt, given one), so count them on the grid the run samples
                skip, fit_dt = float(params["skip_time"]), params["fit_dt"]
                if np.count_nonzero(analysis._fit_mask(sim_grid, slice(None), skip, fit_dt)) < 2:
                    what = "samples" if fit_dt is None else f"multiples of fit_dt {float(fit_dt)}"
                    _fail(f"task 'rate': fewer than two {what} lie in [skip_time {skip}, t_end "
                          f"{sim_end}] on the simulated sample grid (multiples of sample_dt "
                          f"{sim_dt}, segment boundaries and t_end); the fit needs two")
            if name == "robustness" and self.noise_spec is None:
                _fail("task 'robustness' needs a scenario 'noise' entry")
            if name == "simulate":
                sim_end, sim_dt, sim_grid = end, params["sample_dt"], None
            validated.append((name, params))
        return validated

    def _build_noise(self, spec):
        """The run's NoiseProcess, or None for no or zero noise; windowed-random
        noise is drawn once, to the latest t_end of the tasks that read it."""
        if spec is None:
            return None
        if not isinstance(spec, dict) or spec.get("kind") not in NOISE_KINDS:
            _fail(f"noise 'kind' must be one of {NOISE_KINDS}")
        kind = spec["kind"]
        graph._refuse_unknown(spec, NOISE_FIELDS[kind], "noise")
        if kind == "zero":
            return None
        for key in ("zeta", "B0"):  # NoiseProcess checks their ranges
            _require_number(spec, key, "noise")
        ends = [(name, p["t_end"]) for name, p in self.tasks if name in ("simulate", "robustness")]
        if kind == "table" and ("breakpoints" not in spec or "values" not in spec):
            _fail("table noise needs 'breakpoints' and 'values'")
        if kind == "windowed-random":
            seed = _optional_seed(spec, "noise")
            _optional_number(spec, "margin", "noise", None)  # windowed_random checks its range
            if seed is None:
                seed = self._seed_child(1)
        try:
            if kind == "table":
                noise = dynamics.NoiseProcess.table(spec["breakpoints"], spec["values"],
                                                    spec["zeta"], spec["B0"])
            else:
                noise = dynamics.NoiseProcess.windowed_random(
                    self.schedule.node_count, spec["zeta"], spec["B0"], seed,
                    max((end for _, end in ends), default=0.0),
                    **{key: spec[key] for key in ("steps_per_window", "margin") if key in spec})
        except (ConsensusLabError, TypeError, ValueError) as exc:
            _fail(f"invalid {kind} noise: {exc}")
        width, n = noise.node_count, self.schedule.node_count
        if width != n:
            _fail(f"noise values are {width} wide for a {n}-node schedule")
        for name, end in ends:
            if not noise.covers(0.0, end):
                _fail(f"task '{name}': {kind} noise does not cover [0, {end}]")
        return noise


# json's C encoder, for scalars and empty containers: a NaN or infinity raises
# ValueError ("not JSON compliant"), any other object TypeError
_encode = json.JSONEncoder(allow_nan=False).encode


def _json_text(obj, pad=""):
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``
    writes it on a line indented by ``pad``, numpy arrays as lists and numpy
    scalars as Python values.  A list of exact ints, or of finite exact
    floats, is joined in one pass; a key that is not a str raises TypeError."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if type(obj) is int:
        return repr(obj)
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return _encode(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"report key {key!r} is not a string")
        lines = (f"{_encode(key)}: {_json_text(obj[key], inner)}" for key in sorted(obj))
        return "{\n" + inner + (",\n" + inner).join(lines) + "\n" + pad + "}"
    kinds = set(map(type, obj))
    if kinds == {int} or kinds == {float} and math.isfinite(sum(obj)):
        items = map(repr, obj)  # a finite sum: no item is NaN or infinite
    else:
        items = (_json_text(item, inner) for item in obj)
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def _write_json(path, payload):
    """Write payload as sorted-key, 2-space-indented JSON plus a newline, in one write;
    a non-finite number raises ValueError, as strict JSON has none."""
    Path(path).write_text(_json_text(payload) + "\n", encoding="utf-8")


class _Runner:
    def __init__(self, scenario):
        self.scenario = scenario
        self.trajectory = None
        self.trace = None  # edge signals of this trajectory

    def run(self, final):
        """Run every task, then write what they returned into ``final``.

        Each task returns its artifacts by file name (a trajectory, an edge
        trace or a JSON payload), a later task's replacing an earlier one's.
        After the last task each is written once into a fresh sibling, which
        is renamed into place (into an existing directory, its files move in
        with the manifest last).  A failed task writes nothing; a failed
        write removes the sibling and any parent directories made for it.
        """
        files = {}
        for name, params in self.scenario.tasks:
            files.update(getattr(self, "task_" + name)(**params))
        # the manifest, which marks a complete run, goes last
        files["manifest.json"] = {
            "scenario": self.scenario.name,
            "seed": self.scenario.seed,
            "tasks": [name for name, _ in self.scenario.tasks],
            "artifacts": sorted(files),
        }
        created = [p for p in reversed(final.parents) if not p.exists()]
        staging = final.parent / f".{final.name}.partial-{os.getpid()}-{os.urandom(4).hex()}"
        try:
            final.parent.mkdir(parents=True, exist_ok=True)
            staging.mkdir()
            for name, artifact in files.items():
                if isinstance(artifact, dict):
                    _write_json(staging / name, artifact)
                else:
                    artifact.write_csv(staging / name)
            if final.exists():
                for name in files:
                    os.replace(staging / name, final / name)
                staging.rmdir()
            else:
                staging.rename(final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            for parent in reversed(created):
                try:
                    parent.rmdir()
                except OSError:
                    if os.path.exists(parent):  # else mkdir stopped above it
                        break
            raise

    def task_simulate(self, t_end, sample_dt):
        sc = self.scenario
        self.trajectory = dynamics.simulate(sc.schedule, sc.initial_state, t_end, sample_dt,
                                            noise=sc.noise)
        self.trace = None
        return {"trajectory.csv": self.trajectory}

    def task_connectivity(self, delta, T, stride):
        cert = graph.check_joint_connectivity(self.scenario.schedule, delta, T)
        return {"certificate.json": cert.as_dict()}

    def task_bounds(self, delta, stride):
        bounds = observability.uniform_bounds_check(self.scenario.schedule, delta)
        return {"bounds.json": {"delta": delta, **bounds._asdict()}}

    def task_gramian(self, start, delta):
        report = observability.gramian(self.scenario.schedule, start, delta)._asdict()
        del report["entries"]
        return {"gramian.json": report}

    def task_reconstruct(self, start, delta, cond_tol):
        sc = self.scenario
        if self.trace is None:
            self.trace = observability.edge_signals(self.trajectory, sc.schedule)
        estimate, gram, t0 = observability._reconstruct(self.trace, sc.schedule, start, delta, cond_tol)
        # the truth y(s) = x(s) - mean(x(s)) at t0, a copy of one of the trajectory's times
        row = np.searchsorted(self.trajectory.sample_times, t0)
        truth = dynamics.project(self.trajectory.states[row])
        report = {
            "s": start,
            "delta": delta,
            "lambda_min": gram.lambda_min,
            "estimate": estimate,
            "error_vs_truth": float(np.linalg.norm(estimate - truth)),
        }
        return {"edge_signals.csv": self.trace, "reconstruction.json": report}

    def task_rate(self, skip_time, fit_dt):
        fit = analysis.fit_exponential_rate(self.trajectory, skip_time=skip_time, fit_dt=fit_dt)
        return {"rate.json": fit._asdict()}

    def task_robustness(self, t_end, sample_dt):
        sc = self.scenario
        report = analysis.robustness_report(sc.schedule, sc.noise, t_end, sample_dt=sample_dt)
        report = report._asdict()
        report["B0"] = report.pop("energy_bound")
        # the measured supremum is the empirical candidate for C(zeta, B0)
        return {"robustness.json": {**report, "C_bound": report["sup_error"], "t_end": t_end}}


def load_scenario(path):
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"scenario file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"scenario is not valid UTF-8 JSON: {exc}") from exc
    return Scenario(data, path.parent)


def _resolve_output_dir(scenario, flag_value):
    if flag_value == "":
        raise ConfigurationError("--output-dir must name a directory, got ''")
    out = Path(flag_value or scenario.base_dir / scenario.output_dir)
    for path in (out, *out.parents):  # os.path, which takes a name too long as absent
        if os.path.exists(path) and not os.path.isdir(path):
            raise ConfigurationError(
                f"output directory {out}: {path} exists and is not a directory")
    return out


def list_tasks(task=None):
    """Stable help text enumerating the tasks and their parameters."""
    names = sorted(TASKS) if task is None else [task]
    if task is not None and task not in TASKS:
        _unknown_task(task)
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


@functools.cache
def _parser():
    # one parser per process, shared by every main call: parse_args does not
    # mutate it, and no action has a mutable default
    parser = argparse.ArgumentParser(
        prog="consensuslab",
        description="Simulate and analyze continuous-time consensus dynamics "
        "over time-varying and signed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to the scenario JSON file")
    run_p.add_argument("--output-dir", help="override the output directory")
    val_p = sub.add_parser("validate", help="check a scenario file without running it")
    val_p.add_argument("scenario", help="path to the scenario JSON file")
    lt_p = sub.add_parser("list-tasks", help="describe the available tasks")
    lt_p.add_argument("--task", help="show a single task's parameters")
    return parser


def main(argv=None):
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and return its
    exit code: 0, 2 for a bad scenario (also one whose tables cannot be
    allocated) or 3 for a math-domain error (a bad command line exits 2
    through argparse).

    Every call parses with the process's one parser (``_parser``), so repeated
    in-process calls do not build it again."""
    args = _parser().parse_args(argv)
    try:
        if args.command == "list-tasks":
            sys.stdout.write(list_tasks(args.task))
            return 0
        scenario = load_scenario(args.scenario)
        if args.command == "validate":
            print(f"scenario '{scenario.name}' is valid "
                  f"({scenario.schedule.node_count} nodes, {len(scenario.tasks)} tasks)")
            return 0
        out = _resolve_output_dir(scenario, args.output_dir)
        try:
            _Runner(scenario).run(out)
        except ValueError as exc:
            # the scenario validated, so a failed domain check is a math error
            raise ConsensusLabError(str(exc)) from exc
        except OSError as exc:
            raise ConfigurationError(f"output directory {out}: {exc.strerror or exc}") from exc
        return 0
    except (ConfigurationError, MemoryError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except ConsensusLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
