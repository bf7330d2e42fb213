#!/usr/bin/env python3
"""Mutation audit: how many small changes to a module does the test suite catch?

The repository is copied into a scratch directory (never changing `src/`),
and each module named is rewritten there one mutant at a time: a comparison,
arithmetic or boolean operator swapped, or a numeric constant raised by 1
(none where that leaves it equal, as for 1e300). Each mutant runs the
`--tests` selection with `pytest -x -q`, then, if that passes, the whole
suite; a mutant that both pass is a survivor. One JSON line is printed per
mutant (module, line, before, after, killed, seconds), then one summary line
per module. Modules are rewritten through an `ast.unparse` round
trip, which must first pass the whole suite unmutated, so a kill is never an
artifact of the rewrite. Run from anywhere:

    python scripts/mutants.py predict domain --tests "tests/test_predict.py tests/test_acceptance.py"
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120  # a pytest run past this fails: a mutant can make a loop endless
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Div,
    ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is",
    ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
    ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**", ast.And: "and", ast.Or: "or",
}


def sites(tree: ast.AST):
    """Each mutation site of `tree` in walk order: (line, before, after, apply), where apply() mutates the tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            new = SWAPS[type(node.op)]
            yield node.lineno, SYMBOLS[type(node.op)], SYMBOLS[new], lambda n=node, new=new: setattr(n, "op", new())
        elif isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                new = SWAPS[type(op)]
                yield node.lineno, SYMBOLS[type(op)], SYMBOLS[new], lambda n=node, k=k, new=new: n.ops.__setitem__(k, new())
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value + 1 != node.value:
            yield node.lineno, repr(node.value), repr(node.value + 1), lambda n=node: setattr(n, "value", n.value + 1)


def mutant(source: str, index: int) -> str:
    """`source` with its `index`-th site mutated, unparsed."""
    tree = ast.parse(source)
    *_, apply = list(sites(tree))[index]
    apply()
    return ast.unparse(tree)


def passes(work: Path, selection: list[str]) -> bool:
    """True when pytest passes `selection` in `work` within TIMEOUT_S."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    try:
        return subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="admac module names, e.g. predict domain")
    parser.add_argument("--tests", default="", help="pytest arguments run before the whole suite")
    args = parser.parse_args()
    selection = shlex.split(args.tests)
    with tempfile.TemporaryDirectory(prefix="admac-mutants-") as scratch:
        work = Path(scratch, "repo")
        skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench*", ".benchmarks")
        shutil.copytree(ROOT, work, ignore=skip)
        paths = {m: work / "src" / "admac" / f"{m}.py" for m in args.modules}
        source = {m: path.read_text(encoding="utf-8") for m, path in paths.items()}
        plain = {m: ast.unparse(ast.parse(text)) for m, text in source.items()}
        for m, path in paths.items():
            path.write_text(plain[m], encoding="utf-8")
        if not passes(work, []):
            print("the unmutated round trip fails the suite; nothing to measure", file=sys.stderr)
            return 1
        for m, path in paths.items():
            killed = survivors = 0
            # sites are walked on the file as written, so each line number is the file's
            for index, (line, before, after, _) in enumerate(sites(ast.parse(source[m]))):
                path.write_text(mutant(source[m], index), encoding="utf-8")
                start = time.perf_counter()
                dead = bool(selection) and not passes(work, selection)
                dead = dead or not passes(work, [])
                path.write_text(plain[m], encoding="utf-8")
                killed += dead
                survivors += not dead
                record = {"module": m, "line": line, "before": before, "after": after, "killed": dead,
                          "seconds": round(time.perf_counter() - start, 1)}
                print(json.dumps(record), flush=True)
            print(json.dumps({"module": m, "mutants": killed + survivors, "killed": killed,
                              "survivors": survivors}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
