"""Benchmark of the consensuslab command line and library.

Run from the root of a source checkout:

    python3 bench/run.py --workload golden_cli --seed 1 --seconds 30 --trace 0

The workload's scenario files are generated from the seed into a scratch
directory (``.bench_work/``, removed on exit).  Every operation is one
scenario run, either as a fresh ``python -m consensuslab run`` process with
``PYTHONPATH=src`` or in this process through ``consensuslab.cli.main``
after an untimed warm-up pass.  Every output is checked (see checks.py).
One process runs at a time (a closed loop with one client).

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: median time of a fresh ``consensuslab validate`` process;
- ``wall_s``: the scenario set run once as fresh ``run`` processes (sum of
  per-operation medians);
- ``compute_s``: the same set through ``cli.main`` in this warmed process;
- ``peak_rss_mb``: the largest ``ru_maxrss`` of the fresh ``run`` processes.

Times are in reference seconds: every timed run is bracketed by a fixed
calibration kernel and scaled by CALIBRATION_REF_S over the kernel's mean
time around it, so the host's slow and fast spells cancel out.  The raw
seconds are printed on the line before the result.

``--trace 1`` runs the operations with spans and counters around the
package's public functions (see tracing.py) and prints the per-layer
metrics, in measured (unscaled) seconds.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment, the sample counts
and the per-operation medians.

The operations counted in ``attempted`` and ``failed`` are the workload's
valid scenarios, and ``correct`` is false when any of them fails.  The
malformed variants of ``golden_cli`` are reject probes: they run only with
``--trace 1``, and the ones that miss the error contract (exit 2, no
traceback, nothing written) are reported by the per-layer ``error_rate``
(misses over all judged runs, probes included) and listed under ``rejects``
on the line before the result, not counted in ``failed``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# fixed before numpy is imported, here and in every child process
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("CONSENSUSLAB_OUTPUT_DIR", None)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import scenarios  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "scenarios"
WORK_ROOT = ROOT / ".bench_work"

SETUP_REPEATS = 5
IMPORT_SAMPLES = 5
WARM_PER_FRESH = 4
TRACEBACK = "Traceback (most recent call last)"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "compute_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "cli.load_scenario.self_s": "s",
    "cli.main.self_s": "s",
    "cli.artifact_bytes": "count",
    "graph.check_joint_connectivity.self_s": "s",
    "graph.check_joint_connectivity.windows": "count",
    "graph.WeightSchedule.pieces.calls": "count",
    "graph.WeightSchedule.segment_index_at.calls": "count",
    "dynamics.simulate.self_s": "s",
    "dynamics.simulate.calls": "count",
    "dynamics.simulate.samples": "count",
    "dynamics.simulate.t_end_exponent": "exponent",
    "dynamics.simulate.n_exponent": "exponent",
    "dynamics.NoiseProcess.self_s": "s",
    "dynamics.NoiseProcess.t_end_exponent": "exponent",
    "dynamics.Trajectory.write_csv.self_s": "s",
    "observability.gramian.self_s": "s",
    "observability.gramian.calls": "count",
    "observability.reconstruct.self_s": "s",
    "observability.edge_signals.self_s": "s",
    "observability.EdgeSignalTrace.write_csv.self_s": "s",
    "observability.uniform_bounds_check.self_s": "s",
    "analysis.fit_exponential_rate.self_s": "s",
    "analysis.robustness_report.self_s": "s",
    "kernel.eigh.calls": "count",
    "kernel.eigvalsh.calls": "count",
    "kernel.simpson.calls": "count",
    **{f"{m}.errors": "count" for m in tracing.MODULES},
    "error_rate": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _noise_builder(spec, n, t_end):
    from consensuslab.dynamics import NoiseProcess

    return NoiseProcess.windowed_random(
        n, spec["zeta"], spec["B0"], spec["seed"], t_end,
        steps_per_window=int(spec.get("steps_per_window", 4)),
        margin=float(spec.get("margin", 0.05)),
    )


def _import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from consensuslab import cli

    return cli


def _digest(out_dir):
    h = hashlib.sha1()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class Bench:
    """Runs a workload's operations fresh or warm and judges every outcome."""

    def __init__(self, workload, seed, work):
        self.work = work
        self.ops = scenarios.generate(workload, seed, work / "scenarios", GOLDEN_DIR)
        self.valid = [op for op in self.ops if op.expect == "ok"]
        self.data = {op.name: json.loads(op.path.read_text()) for op in self.ops}
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.models = {}
        self.verified = {op.name: set() for op in self.ops}
        self.attempted = 0
        self.failed = 0
        self.probed = 0  # reject probes judged and missed; not in attempted/failed
        self.probes_missed = 0
        self.correct = True
        self.problems = []

    def out_dir(self, op):
        return self.work / "out" / op.name

    def fresh(self, op, command="run", flags=()):
        """Seconds, exit code, stderr and peak RSS (KiB) of one fresh process."""
        out = self.out_dir(op)
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, *flags, "-m", "consensuslab", command, str(op.path)]
        if command == "run":
            argv += ["--output-dir", str(out)]
        with open(self.work / "stdout.txt", "w+") as so, open(self.work / "stderr.txt", "w+") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=self.env, cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            se.seek(0)
            err = se.read()
        return elapsed, proc.returncode, err, usage.ru_maxrss

    def warm(self, op, cli):
        """Seconds, exit code and stderr of one in-process ``cli.main`` run."""
        out = self.out_dir(op)
        shutil.rmtree(out, ignore_errors=True)
        err = io.StringIO()
        failure = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["run", str(op.path), "--output-dir", str(out)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaping exception is a failed operation
            code, failure = 1, traceback.format_exc()
        elapsed = time.perf_counter() - start
        return elapsed, code, err.getvalue() + (failure or "")

    def judge(self, op, code, err):
        """Count the operation or probe and record whether it met its contract."""
        if op.expect == "reject":
            self.probed += 1
        else:
            self.attempted += 1
        out = self.out_dir(op)
        if TRACEBACK in err:
            problem = "printed a traceback"
        elif op.expect == "reject":
            leftover = out.is_dir() and any(out.iterdir())
            problem = None if code == 2 and not leftover else (
                f"exit {code}" + (", left output" if leftover else ""))
        elif code != 0:
            problem = f"exit {code}"
        else:
            problem = self._check(op, out)
        if problem is None:
            return True
        if op.expect == "reject":
            self.probes_missed += 1
        else:
            self.failed += 1
            self.correct = False
        message = f"{op.name}: {problem}"
        if message not in self.problems:
            self.problems.append(message)
        return False

    def _check(self, op, out):
        digest = _digest(out)
        if digest in self.verified[op.name]:
            return None
        data = self.data[op.name]
        if op.name not in self.models:
            self.models[op.name] = checks.Model(data, _noise_builder)
        try:
            problems = checks.check_run(data, out, self.models[op.name], op.meta.get("verdict"))
        except Exception as exc:  # malformed output makes the checker raise
            problems = [f"check raised {exc!r}"]
        if problems:
            return "; ".join(problems)
        self.verified[op.name].add(digest)
        return None

    def artifact_bytes(self, op):
        out = self.out_dir(op)
        return sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.is_dir() else 0


# The host this benchmark was built on swings between fast and slow spells
# (up to 2x, lasting seconds to minutes), which moved raw timings by 30 %
# between runs; scaled by the calibration kernel they moved by about 10 %.
CALIBRATION_REF_S = 0.005
_CALIBRATION_MATRIX = np.linspace(0.0, 1.0, 100).reshape(10, 10)


def calibrate():
    """Seconds taken by a fixed mix of interpreter work, small matrix
    products and float formatting, the program's own mix of work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += float((_CALIBRATION_MATRIX @ _CALIBRATION_MATRIX[:, i % 10])[0])
        f"{acc:.17g}"
    return time.perf_counter() - start


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _timed_loop(seconds, units):
    """Call the units round-robin, unit(round), until the next one would end
    past ``seconds``; each unit runs at least once.  Returns the call count."""
    start = time.perf_counter()
    cost = [0.0] * len(units)
    calls = 0
    while True:
        pos = calls % len(units)
        t0 = time.perf_counter()
        units[pos](calls // len(units))
        cost[pos] = time.perf_counter() - t0
        calls += 1
        if calls >= len(units) and (
                time.perf_counter() - start + cost[calls % len(units)] > seconds):
            return calls


def measure(bench, seconds):
    """End-to-end metrics with tracing off, over the valid operations."""
    calibration = []
    # metric -> key -> [(reference seconds, measured seconds)]
    samples = {"setup_s": {}, "wall_s": {}, "compute_s": {}}

    def timed(metric, key, run):
        before = calibrate()
        result = run()
        after = calibrate()
        calibration.extend((before, after))
        scaled = result[0] * 2.0 * CALIBRATION_REF_S / (before + after)
        samples[metric].setdefault(key, []).append((scaled, result[0]))
        return result

    valid = bench.valid
    bench.fresh(valid[0], "validate")  # untimed: fills file caches and bytecode
    for k in range(SETUP_REPEATS):
        op = valid[k % len(valid)]
        _, code, err, _ = timed("setup_s", "validate", lambda: bench.fresh(op, "validate"))
        if code != 0 or TRACEBACK in err:
            bench.correct = False
            bench.problems.append(f"validate {op.name}: exit {code}")

    cli = _import_cli()
    for op in valid:  # warm-up pass, untimed but checked
        _, code, err = bench.warm(op, cli)
        bench.judge(op, code, err)

    rss = []

    def sample(op, k):
        # One fresh run, then warm runs until they have taken as long (at
        # most WARM_PER_FRESH): both metrics get a fair share of the run.
        elapsed, code, err, maxrss = timed("wall_s", op.name, lambda: bench.fresh(op))
        bench.judge(op, code, err)
        rss.append(maxrss)
        spent = 0.0
        for _ in range(WARM_PER_FRESH):
            warm_s, code, err = timed("compute_s", op.name, lambda: bench.warm(op, cli))
            bench.judge(op, code, err)
            spent += warm_s
            if spent >= elapsed:
                break

    _timed_loop(seconds, [lambda k, op=op: sample(op, k) for op in valid])

    def total(metric, pos):
        # sum over the operations of each one's median
        return sum(_median([t[pos] for t in ts]) for ts in samples[metric].values())

    metrics = {metric: total(metric, 0) for metric in samples}
    metrics["peak_rss_mb"] = max(rss) / 1024.0
    info = {
        "measured_s": {metric: total(metric, 1) for metric in samples},
        "calibration_median_s": _median(calibration),
        "samples": {metric: {key: len(ts) for key, ts in by_key.items()}
                    for metric, by_key in samples.items()},
    }
    return metrics, END_TO_END, info


def measure_traced(bench, seconds):
    """Per-layer metrics from spans and counters around the package."""
    tracer = tracing.Tracer()
    tracer.install_kernels()
    cli = _import_cli()
    tracer.install_package()

    imports = []
    for op in bench.ops:  # one fresh pass, also checked
        _, code, err, _ = bench.fresh(op, flags=("-X", "importtime"))
        bench.judge(op, code, err)
        imports.append(tracing.parse_importtime(err))
    valid = bench.valid
    while len(imports) < IMPORT_SAMPLES:
        op = valid[len(imports) % len(valid)]
        imports.append(tracing.parse_importtime(
            bench.fresh(op, "validate", flags=("-X", "importtime"))[2]))

    for op in bench.ops:  # warm-up pass, untimed but checked
        _, code, err = bench.warm(op, cli)
        bench.judge(op, code, err)

    traced, untraced = [], []  # per pass: {op name: seconds}
    pass_counts, pass_bytes = [], []

    def run_pass(trace_on):
        tracer.set_installed(trace_on)
        times, nbytes = {}, 0
        counts_before = tracer.counts.copy()
        for op in bench.ops:
            tracer.op = (len(traced), op.name)
            tracer.active = trace_on
            elapsed, code, err = bench.warm(op, cli)
            tracer.active = False
            times[op.name] = elapsed
            nbytes += bench.artifact_bytes(op)
            bench.judge(op, code, err)
        if trace_on:
            traced.append(times)
            pass_counts.append(tracer.counts - counts_before)
            pass_bytes.append(nbytes)
        else:
            untraced.append(times)

    def one_round(k):
        for trace_on in ((True, False) if k % 2 == 0 else (False, True)):
            run_pass(trace_on)

    rounds = _timed_loop(seconds, [one_round])
    tracer.set_installed(False)

    self_times = tracer.self_times()
    n_pass = len(traced)
    per_pass_self = [dict() for _ in range(n_pass)]
    per_op_incl = {}  # (span name, op name) -> list of inclusive seconds per pass
    for idx, (name, start, end, parent, (p, op_name)) in enumerate(tracer.spans):
        per_pass_self[p][name] = per_pass_self[p].get(name, 0.0) + self_times[idx]
        outer = parent is None or tracer.spans[parent][0] != name
        if outer:
            per_op_incl.setdefault((name, op_name), [0.0] * n_pass)[p] += end - start
    span_calls = [dict() for _ in range(n_pass)]
    for name, _, _, _, (p, _) in tracer.spans:
        span_calls[p][name] = span_calls[p].get(name, 0) + 1

    def med_self(name):
        return _median([d.get(name, 0.0) for d in per_pass_self])

    def med_count(name):
        return _median([c.get(name, 0) for c in pass_counts])

    def exponent(span, key, fixed_key, fixed_value):
        pts = [(op.meta[key], _median(per_op_incl.get((span, op.name), [0.0])))
               for op in bench.ops if op.meta.get(fixed_key) == fixed_value]
        return tracing.fit_exponent([x for x, _ in pts], [y for _, y in pts])

    def compute(passes):
        return sum(_median([p[op.name] for p in passes]) for op in bench.ops)

    metrics = {
        "import.total_s": _median([i["total"] for i in imports]),
        "import.scipy_s": _median([i["scipy"] for i in imports]),
        "import.numpy_s": _median([i["numpy"] for i in imports]),
        "cli.artifact_bytes": _median(pass_bytes),
        "dynamics.simulate.calls": _median([c.get("dynamics.simulate", 0) for c in span_calls]),
        "observability.gramian.calls": _median(
            [c.get("observability.gramian", 0) for c in span_calls]),
        "dynamics.simulate.t_end_exponent": exponent(
            "dynamics.simulate", "t_end", "n", scenarios.SWEEP_N),
        "dynamics.simulate.n_exponent": exponent(
            "dynamics.simulate", "n", "t_end", scenarios.SWEEP_T_END),
        "dynamics.NoiseProcess.t_end_exponent": exponent(
            "dynamics.NoiseProcess", "t_end", "n", scenarios.SWEEP_N),
        "error_rate": (bench.failed + bench.probes_missed) / (bench.attempted + bench.probed),
        "trace.overhead_ratio": compute(traced) / compute(untraced),
    }
    for name in PER_LAYER:
        if name in metrics:
            continue
        if name.endswith(".self_s"):
            metrics[name] = med_self(name[: -len(".self_s")])
        else:
            metrics[name] = med_count(name)
    info = {"samples": {"traced_passes": n_pass, "untraced_passes": len(untraced),
                        "rounds": rounds, "import_samples": len(imports)}}
    return metrics, PER_LAYER, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p) for p in (SRC / "consensuslab" / "__init__.py", GOLDEN_DIR) if not p.exists()]
    if missing:
        print(f"bench: not a consensuslab checkout, missing {missing}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        measure_fn = measure_traced if args.trace else measure
        values, units, info = measure_fn(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "problems": bench.problems,
        "rejects": {"probed": bench.probed, "missed": bench.probes_missed},
    })
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
