"""Any JSON input gives exit 0, 1 or 2 and never an escaping exception.

Each example takes one golden CLI case (``test_golden.CLI_CASES``, all six
subcommands), replaces or deletes one or two nodes of its input JSON with
small JSON values and runs ``annuli.cli.main`` on the result.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from annuli.cli import main
from test_golden import CLI_CASES, INPUTS

CASES = sorted(CLI_CASES)  # each reads one input file and keeps its other flags
DELETE = object()

small_json = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "1/0", "x", "t1", "u1", ""]),
    st.just([]),
    st.just({}),
    st.lists(st.integers(-2, 2), max_size=3),
    st.lists(st.sampled_from(["0", "1/2", "2"]), max_size=3),
)


def _paths(node, path=()):
    """Every path to a node below the root, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for k, child in items:
        yield path + (k,)
        yield from _paths(child, path + (k,))


def _mutate(obj, path, value):
    *head, last = path
    for k in head:
        obj = obj[k]
    if value is DELETE:
        del obj[last]
    else:
        obj[last] = value


@st.composite
def mutated_case(draw):
    name = draw(st.sampled_from(CASES))
    argv = CLI_CASES[name]
    src = next(a[1:] for a in argv if a.startswith("@"))
    obj = json.loads((INPUTS / f"{src}.json").read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(obj))
        if not paths:
            break
        value = draw(st.one_of(st.just(DELETE), small_json))
        _mutate(obj, draw(st.sampled_from(paths)), value)
    return argv, obj


@settings(max_examples=200, deadline=None)
@given(mutated_case())
def test_mutated_golden_input_exits_0_1_or_2(case):
    argv, obj = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        args = [str(path) if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
