"""Compare the runs of a git revision with those of the working tree.

Checks REF out into a temporary git worktree and runs ``python -m
consensuslab run`` as a fresh process in both trees on the same scenario
files: the golden scenarios of scenarios/ and, for every --workload W and
--seed S given, the scenario files that bench/scenarios.generate writes.
Both trees write into the same output path, so a message that names it
compares too.  Exit codes, stdout, stderr and output trees are compared
byte for byte; the files that differ are printed.  Exits 1 on any
difference, else 0.  The worktree is removed at the end.

    python tools/golden_diff.py REF [--workload W]... [--seed S]...
"""

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import scenarios  # noqa: E402  (bench/scenarios.py)


def cases(work, workloads, seeds):
    """(name, scenario file) of the goldens and of every generated operation."""
    found = [(p.stem, p) for p in sorted((ROOT / "scenarios").glob("*.json"))]
    for workload in workloads:
        for seed in seeds:
            out = work / "scenarios" / f"{workload}-{seed}"
            for op in scenarios.generate(workload, seed, out, ROOT / "scenarios"):
                found.append((str(op.path.relative_to(work / "scenarios").with_suffix("")),
                              op.path))
    return found


def run_all(src, found, out_root):
    """Run every case with the package in ``src``; case ``name`` keeps its
    exit code, stdout, stderr and output directory under out_root/name."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for name, path in found:
        case = out_root / name
        case.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "consensuslab", "run", str(path), "--output-dir",
             str(case / "out")], env=env, cwd=case, capture_output=True, timeout=600)
        (case / "exit").write_text(f"{proc.returncode}\n")
        (case / "stdout").write_bytes(proc.stdout)
        (case / "stderr").write_bytes(proc.stderr)


def differences(a, b):
    """Paths under a or b that are missing from the other, or differ."""
    def same(x, y):
        if x.is_dir() or y.is_dir():
            return x.is_dir() and y.is_dir()
        return x.is_file() and y.is_file() and filecmp.cmp(x, y, shallow=False)

    paths = {p.relative_to(a) for p in a.rglob("*")} | {p.relative_to(b) for p in b.rglob("*")}
    return sorted(rel for rel in paths if not same(a / rel, b / rel))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", metavar="REF", help="the git revision to compare with")
    parser.add_argument("--workload", action="append", default=[], choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", action="append", default=[], type=int)
    args = parser.parse_args()
    if args.workload and not args.seed:
        parser.error("--workload needs at least one --seed")
    with tempfile.TemporaryDirectory(prefix="golden-diff-") as tmp:
        work = Path(tmp)
        tree = work / "ref-tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                        str(tree), args.ref], check=True)
        try:
            found = cases(work, args.workload, args.seed)
            # the same output path for both trees, renamed after each
            for src, label in ((tree / "src", "ref"), (ROOT / "src", "new")):
                run_all(src, found, work / "run")
                (work / "run").rename(work / label)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
        differ = differences(work / "ref", work / "new")
        for rel in differ:
            print(f"differs: {rel}")
        files = sum(p.is_file() for p in (work / "new").rglob("*"))
        print(f"{len(found)} runs, {files} files in the working tree's results: "
              f"{len(differ)} paths differ from {args.ref}")
        return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
