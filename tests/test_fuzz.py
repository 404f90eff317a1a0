"""Exit-code contract under mutated input.

``cli.main`` runs in process on problem configs made from the built-in
fixtures and from ``random_config`` by up to three random edits of the
JSON tree, one time in five followed by an edit of the text.  Every run
must end in exit 0, 2, 3 or 4 with no exception escaping ``main``.  A
run that prints no document prints exactly one ``error [...]`` line on
stderr; a run that prints one reports per-divisor errors inside it and
writes nothing to stderr.  Integers in edits reach +-10**40, and a
``leaf`` edit puts such an integer, or a string that may hold a lone
surrogate, where the document already has an integer or a string, so a
huge rank, degree or summand multiplicity and an unwritable label or
name are part of the contract too.  Stdout is strict UTF-8, as a
process's own stdout is.
"""

import contextlib
import io
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from flagcones.cli import main
from flagcones.gallery import builtin_examples
from flagcones.report import parse_machine, render_machine
from flagcones.selftest import random_config


def _as_json(config) -> dict:
    # graded pieces (rank, degree); a split bundle's are (m, d * m) for m summands of degree d
    pieces = [(r - q, d - e) for (q, e), (r, d) in zip([(0, 0), *config.hn_steps], config.hn_steps)]
    if all(degree % rank == 0 for rank, degree in pieces):
        bundle = {"summands": [{"degree": d // m, "multiplicity": m} for m, d in pieces]}
    else:
        bundle = {"hn_steps": [list(step) for step in config.hn_steps]}
    return {
        "curve": {"genus": config.curve.genus, "label": config.curve.label},
        "bundle": bundle,
        "flag": {"quotient_ranks": list(config.flag_ranks)},
        "divisors": [
            {"name": d.name, "basis": d.basis.value, "coords": [str(c) for c in d.coords]}
            for d in config.divisors
        ],
    }


BASES = st.one_of(
    st.sampled_from(builtin_examples()).map(lambda fixture: _as_json(fixture.config)),
    st.integers(0, 2**32).map(lambda seed: _as_json(random_config(random.Random(seed)))),
)

SCALARS = st.one_of(
    st.integers(-(10**40), 10**40),
    st.sampled_from(["1/0", "3/4", "-2", " 5 ", "1/2/3", "x", "", "nef", "pluecker"]),
    st.text(max_size=6),
    st.floats(),
    st.booleans(),
    st.none(),
)

VALUES = st.one_of(
    st.integers(-8, 8),
    st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=6,
    ),
)

# one value of the same JSON type for a leaf edit; UTF-8 cannot encode a lone surrogate
LEAVES = {
    int: st.integers(-(10**40), 10**40),
    str: st.lists(st.characters() | st.integers(0xD800, 0xDFFF).map(chr), max_size=6).map("".join),
}

TEXT_EDITS = st.sampled_from(["", "{", "}", "[", "]", ",", ":", '"', "0", "-", "/"])


def _slots(node):
    """Every ``(container, key)`` pair of a JSON tree, parents first."""
    for key, child in list(node.items() if isinstance(node, dict) else enumerate(node)):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


@st.composite
def mutated_configs(draw) -> str:
    doc = draw(BASES)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["replace", "delete", "add", "leaf"]))
        slots = list(_slots(doc))
        if edit == "leaf":
            slots = [(parent, key) for parent, key in slots if type(parent[key]) in LEAVES]
        if not slots:
            continue
        parent, key = draw(st.sampled_from(slots))
        if edit == "leaf":
            parent[key] = draw(LEAVES[type(parent[key])])
        elif edit == "replace":
            parent[key] = draw(VALUES)
        elif edit == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=6))] = draw(VALUES)
        else:
            parent.insert(key, draw(VALUES))
    text = json.dumps(doc)
    if draw(st.integers(0, 4)) == 0:
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 6)))
        text = text[:start] + draw(TEXT_EDITS) + text[end:]
    return text


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    text=mutated_configs(),
    command=st.sampled_from(["hn", "cones", "seshadri"]),
    machine=st.booleans(),
)
def test_mutated_config_keeps_exit_contract(tmp_path_factory, text, command, machine):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(text, encoding="utf-8")
    argv = [command, "--machine", str(path)] if machine else [command, str(path)]
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    out, err = out.buffer.getvalue().decode("utf-8"), err.getvalue()
    assert code in (0, 2, 3, 4)
    if out:
        assert err == ""
        if machine:
            assert render_machine(parse_machine(out)) == out
    else:
        assert code != 0
        assert len(err.splitlines()) == 1 and err.startswith("error [")
