"""Mutation analysis: which small edits of a module the tests do not catch.

Usage::

    python3 tools/mutants.py --list src/flagcones/bundles.py src/flagcones/flags.py
    python3 tools/mutants.py src/flagcones/bundles.py

Each mutant is one edit of one module's source:

* ``compare``: a comparison swapped, ``<`` with ``<=``, ``>`` with ``>=``
  and ``==`` with ``!=``;
* ``arith``: ``+`` with ``-``, in a binary or an augmented operation;
* ``const``: an integer constant plus one;
* ``delete``: a ``raise`` statement, or the body of an ``if``, made ``pass``.

The mutants are found on the module's syntax tree and written by splicing
its text, so the rest of the file, comments and line numbers included,
stays as it is.  A mutant whose text does not parse to the tree it means
(an operator the text does not show where the tree puts it) is left out.
``--list`` prints one JSON line per mutant and runs nothing.

Otherwise the checkout, without ``.git`` and caches, is copied once into a
temporary directory, and the mutants run one after another there: the
mutant's file is written into the copy, the tests run in one child process
and the file is put back.  The tests are tier-1 (``python -m pytest -q -x
--continue-on-collection-errors`` from the copy's root, ``src`` on the
path, no bytecode); hypothesis and the hash seed draw from ``SEED`` and
the example database is cleared before each run, so a mutant's result
does not depend on the ones before it.  The unmutated copy
runs first and must pass.  Each mutant's JSON line gets its ``status``:
``killed`` (the tests failed), ``survived`` (they passed) or ``timeout``
(the whole process group is killed after ``TIMEOUT`` seconds); a last
line sums them up.  Nothing in the checkout is written.

Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
TIMEOUT = 240.0  # seconds per test run
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-",
}
OPERATOR = re.compile(r"<=|>=|==|!=|<|>|\+|-")
SKIPPED = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}


def _offsets(source: bytes) -> list[int]:
    """Byte offset of the start of each line; the tree's columns are bytes."""
    starts, total = [], 0
    for line in source.splitlines(keepends=True):
        starts.append(total)
        total += len(line)
    return starts


def _parents(tree: ast.AST) -> dict[int, tuple[ast.AST, str, int]]:
    """``id`` of each statement in a list -> its parent, field and index."""
    found = {}
    for parent in ast.walk(tree):
        for name, value in ast.iter_fields(parent):
            if isinstance(value, list):
                for index, child in enumerate(value):
                    found[id(child)] = (parent, name, index)
    return found


def _points(tree: ast.AST, span):
    """``(node index, kind, detail, start, end, old, new)`` per mutation of
    ``tree``, with ``span(node)`` a node's byte range and ``detail`` what
    :func:`_mutate` needs to make the same edit on a fresh tree."""
    for index, node in enumerate(ast.walk(tree)):
        gaps = []  # (operator, detail, left operand, right operand)
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            gaps = [(op, i, operands[i], operands[i + 1]) for i, op in enumerate(node.ops)]
        elif isinstance(node, ast.BinOp):
            gaps = [(node.op, None, node.left, node.right)]
        elif isinstance(node, ast.AugAssign):
            gaps = [(node.op, None, node.target, node.value)]
        for op, detail, left, right in gaps:
            if type(op) in SWAPS:
                start, end = span(left)[1], span(right)[0]
                kind = "compare" if isinstance(node, ast.Compare) else "arith"
                yield index, kind, detail, start, end, SYMBOLS[type(op)], SYMBOLS[SWAPS[type(op)]]
        if isinstance(node, ast.Constant) and type(node.value) is int:
            yield index, "const", None, *span(node), None, repr(node.value + 1)
        elif isinstance(node, ast.Raise):
            yield index, "delete", None, *span(node), None, "pass"
        elif isinstance(node, ast.If) and not (len(node.body) == 1 and isinstance(node.body[0], ast.Pass)):
            yield index, "delete", "body", span(node.body[0])[0], span(node.body[-1])[1], None, "pass"


def _mutate(tree: ast.AST, index: int, kind: str, detail) -> ast.AST:
    """``tree`` with the edit of one mutant made on its ``index``-th node."""
    node = list(ast.walk(tree))[index]
    if kind == "compare":
        node.ops[detail] = SWAPS[type(node.ops[detail])]()
    elif kind == "arith":
        node.op = SWAPS[type(node.op)]()
    elif kind == "const":
        node.value += 1
    elif detail == "body":
        node.body = [ast.Pass()]
    else:
        parent, name, position = _parents(tree)[id(node)]
        getattr(parent, name)[position] = ast.Pass()
    return tree


def mutants(path: Path) -> list[dict]:
    """Every mutant of the module at ``path``, in source order."""
    source = path.read_bytes()
    tree = ast.parse(source)
    starts = _offsets(source)

    def span(node):
        return (
            starts[node.lineno - 1] + node.col_offset,
            starts[node.end_lineno - 1] + node.end_col_offset,
        )

    found, texts = [], set()
    for index, kind, detail, start, end, old, new in _points(tree, span):
        if old is not None:  # the operator sits in the text between the operands
            between = source[start:end].decode()
            hits = OPERATOR.findall(between)
            if hits != [old]:
                continue
            start += OPERATOR.search(between).start()
            end = start + len(old)
        text = source[:start] + new.encode() + source[end:]
        if text in texts:  # an if body that is one raise: both deletions are one edit
            continue
        texts.add(text)
        try:
            written = ast.dump(ast.parse(text))
        except SyntaxError:
            continue
        if written != ast.dump(_mutate(ast.parse(source), index, kind, detail)):
            continue
        line = source[:start].count(b"\n") + 1
        shown = source[start:end].decode().split("\n")[0]
        found.append({
            "file": path.relative_to(ROOT).as_posix(),
            "line": line,
            "col": start - starts[line - 1],
            "operator": kind,
            "from": shown[:60],
            "to": new,
            "text": text,
        })
    found.sort(key=lambda m: (m["line"], m["col"], m["operator"]))
    return found


def _ignore(directory: str, names: list[str]) -> set[str]:
    skipped = SKIPPED & set(names)
    if Path(directory).name == "bench" and "out" in names:
        skipped.add("out")  # run-time output of the benchmark
    return skipped


def run_tests(copy: Path, args: list[str], env: dict) -> tuple[str, float]:
    """Status of one test run in ``copy``, and its wall seconds."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    start = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, "-m", "pytest", *args],
        cwd=copy,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = child.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "timeout", time.monotonic() - start
    return ("survived" if code == 0 else "killed"), time.monotonic() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path, help="module files of this checkout")
    parser.add_argument("--list", action="store_true", help="print the mutants and run nothing")
    args = parser.parse_args(argv)

    found = []
    for module in args.modules:
        found += mutants(module.resolve())
    for number, mutant in enumerate(found):
        mutant["id"] = number

    def show(mutant, **extra):
        fields = {k: v for k, v in mutant.items() if k != "text"}
        print(json.dumps({**fields, **extra}), flush=True)

    if args.list:
        for mutant in found:
            show(mutant)
        return 0

    pytest_args = [
        "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors",
        f"--hypothesis-seed={SEED}",
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED=str(SEED))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    counts = {"killed": 0, "survived": 0, "timeout": 0}
    began = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        status, _ = run_tests(copy, pytest_args, env)
        if status != "survived":
            print(f"pytest {' '.join(pytest_args)} did not pass unmutated ({status})", file=sys.stderr)
            return 2
        for mutant in found:
            target = copy / mutant["file"]
            original = target.read_bytes()
            target.write_bytes(mutant["text"])
            try:
                status, seconds = run_tests(copy, pytest_args, env)
            finally:
                target.write_bytes(original)
            counts[status] += 1
            show(mutant, status=status, seconds=round(seconds, 1))
    print(json.dumps({"mutants": len(found), **counts, "seconds": round(time.monotonic() - began)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
