"""List the executable lines of src/consensuslab that the test suite never runs.

Runs pytest in-process under a stdlib line tracer, then compares the lines
it saw with those of every function and class body in the package (a
module's own top-level lines run on import and are not counted).  Exits
with pytest's status when pytest fails, 1 when a line never ran, else 0.

    python tools/never_run_lines.py [pytest args...]
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src" / "consensuslab")


def executable(code, top=True):
    """Line numbers of every code object nested in ``code``."""
    lines = set() if top else {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable(const, False)
    return lines


def main(args):
    ran = {}

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(SRC):
            return None
        hit = ran.setdefault(frame.f_code.co_filename, set())
        hit.add(frame.f_lineno)

        def local(frame, event, arg):
            hit.add(frame.f_lineno)
            return local
        return local

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        rc = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(Path(SRC).glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed = sorted(executable(code) - ran.get(str(path), set()))
        total += len(missed)
        if missed:
            print(f"{path.name}: {missed}")
    print(f"never-run lines: {total} (pytest exit {int(rc)})")
    return int(rc) or (1 if total else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
