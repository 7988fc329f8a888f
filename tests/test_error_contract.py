"""The command line's error contract under mutated golden scenarios.

One field of a golden scenario (at any depth) is replaced by a value from a
fixed pool of bad values.  Whatever the mutation, a run exits 0, 2 or 3,
never lets an exception escape, and leaves nothing behind when it fails.
Tiny positive steps are not in the pool: they are valid, only unbounded
work.  A second, exhaustive test sets every field to an integer past the
float range and checks that ``validate`` refuses it or accepts it.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from consensuslab.cli import main  # noqa: E402

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDENS = {p.stem: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}

BAD_VALUES = [None, True, False, "abc", [], {}, float("nan"), float("inf"), -float("inf"),
              -1, -0.5, 0]


def _field_paths(node, prefix=()):
    """Every dict key and list index of a JSON tree, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out += _field_paths(child, prefix + (key,))
    return out


# each golden is drawn equally often, then one of its fields
TARGETS = st.sampled_from(sorted(GOLDENS)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(_field_paths(GOLDENS[name])))
)


def _mutated(name, path, value):
    data = copy.deepcopy(GOLDENS[name])
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(target=TARGETS, value=st.sampled_from(BAD_VALUES))
def test_mutated_goldens_keep_the_error_contract(target, value):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(_mutated(*target, value)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", str(scenario)])  # an escaping exception fails the test
        assert code in (0, 2, 3), (target, value, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert sorted(Path(tmp).iterdir()) == [scenario], (target, value, code)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_integers_past_the_floats_are_refused_or_validate(name, tmp_path, capsys):
    # JSON allows any number of digits: every field set to +-10**400, an int
    # that no float, count or array size holds, validates or exits 2
    scenario = tmp_path / "scenario.json"
    for path in _field_paths(GOLDENS[name]):
        for value in (10 ** 400, -10 ** 400):
            scenario.write_text(json.dumps(_mutated(name, path, value)))
            assert main(["validate", str(scenario)]) in (0, 2), (path, value)
            assert "Traceback" not in capsys.readouterr().err
