#!/usr/bin/env python3
"""Check the working tree against a git revision: same data rows, same stamps, same stderr.

REV is checked out with `git worktree add --detach` into a temporary
directory, which is removed again on every exit path. One seed-5 world of
every country in continents.csv is generated with the working tree's
`bench/world.py`, and four cases then run in both trees, each through
its own tree's `src/` and `bench/live_driver.py`:

- demo: `admac all --seed 42` on the bundled data;
- world: `admac all --seed 5` on the world, under the defaults;
- world-parents-continent: the same with `--lower-bound-policy parents-only
  --loocv-scope continent`;
- live: `bench/live_driver.py --seed 5` on the world, its cache included.

Each case gets two verdicts over its output files. Data rows are every
line but the `# key=value` stamps of a CSV, and every line of a JSON file
outside its top-level "metadata" object; stamps are the rest. The exit
status, stdout and stderr must match too, with each tree's root read as
`<tree>`. The script prints one line per case and exits 1 when anything
differs, naming the first differing file and line. It writes nothing into
the working tree. Run from anywhere:

    python scripts/against_parent.py HEAD~1
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORLD_SEED = 5
WORLD_FLAGS = ["--seed", str(WORLD_SEED), "--fixture-dir", "{world}/fixtures", "--truth", "{world}/truth.csv"]
CASES = {
    "demo": ["-m", "admac.cli", "all", "--seed", "42", "--out", "out"],
    "world": ["-m", "admac.cli", "all", *WORLD_FLAGS, "--out", "out"],
    "world-parents-continent": [
        "-m", "admac.cli", "all", *WORLD_FLAGS, "--lower-bound-policy", "parents-only",
        "--loocv-scope", "continent", "--out", "out",
    ],
    "live": ["{tree}/bench/live_driver.py", "--world", "{world}", "--out", "out", "--cache", "cache",
             "--seed", str(WORLD_SEED)],
}


def git(*args: str) -> None:
    subprocess.run(["git", "-C", str(ROOT), *args], check=True, stdout=subprocess.DEVNULL)


def generate_world(directory: Path) -> None:
    spec = importlib.util.spec_from_file_location("world", ROOT / "bench" / "world.py")
    world = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(world)
    world.generate_world(directory, ROOT / "src" / "admac" / "data" / "continents.csv", WORLD_SEED)


def run_case(tree: Path, world: Path, args: list[str], cwd: Path) -> list[str]:
    """Run one case of `tree` in `cwd`; return its exit status, stdout and stderr as lines."""
    cwd.mkdir(parents=True)
    argv = [sys.executable] + [arg.format(tree=tree, world=world) for arg in args]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    text = f"exit status {done.returncode}\n{done.stdout}{done.stderr}".replace(str(tree), "<tree>")
    return text.splitlines()


def split_lines(path: Path) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    """(data lines, stamp lines) of one output file, each line with its 1-based number."""
    data, stamps = [], []
    is_json = path.suffix in (".json", ".geojson")
    in_metadata = False
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        # admac writes JSON with indent=2, so the top-level "metadata" object closes at two spaces
        in_metadata = in_metadata or is_json and line.startswith('  "metadata": {')
        (stamps if in_metadata or not is_json and line.startswith("#") else data).append((number, line))
        in_metadata = in_metadata and line.rstrip(",") not in ("  }", '  "metadata": {}')
    return data, stamps


def first_difference(name: str, base: list[tuple[int, str]], head: list[tuple[int, str]]) -> str | None:
    for (number, old), (_, new) in zip(base, head):
        if old != new:
            return f"{name}:{number}: {old!r} became {new!r}"
    if len(base) != len(head):
        longer = base if len(base) > len(head) else head
        number, line = longer[min(len(base), len(head))]
        return f"{name}:{number}: {line!r} {'is gone' if longer is base else 'is new'}"
    return None


def compare(base: Path, head: Path, base_run: list[str], head_run: list[str]) -> dict[str, str | None]:
    """The first difference in data rows, in stamps, and in exit status and output (None if none)."""
    verdicts: dict[str, str | None] = {"data rows": None, "stamps": None, "exit status and output": None}
    for name in sorted({p.relative_to(d) for d in (base, head) for p in d.rglob("*") if p.is_file()}):
        missing = [side for side, d in (("REV", base), ("the working tree", head)) if not (d / name).is_file()]
        if missing:
            verdicts["data rows"] = verdicts["data rows"] or f"{name}: not written by {missing[0]}"
            continue
        for kind, old, new in zip(("data rows", "stamps"), split_lines(base / name), split_lines(head / name)):
            verdicts[kind] = verdicts[kind] or first_difference(str(name), old, new)
    numbered = [list(enumerate(run, start=1)) for run in (base_run, head_run)]
    verdicts["exit status and output"] = first_difference("output", *numbered)
    return verdicts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the revision to check against, for example HEAD or the base of a pull request")
    rev = parser.parse_args().rev
    sys.dont_write_bytecode = True  # the world generator is imported from the working tree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so a killed run still removes its worktree
    scratch = Path(tempfile.mkdtemp(prefix="against-parent-"))
    base_tree = scratch / "tree"
    try:
        git("worktree", "add", "--detach", str(base_tree), rev)
        generate_world(scratch / "world")
        first = None
        for case, args in CASES.items():
            runs = {side: run_case(tree, scratch / "world", args, scratch / side / case)
                    for side, tree in (("rev", base_tree), ("head", ROOT))}
            verdicts = compare(scratch / "rev" / case, scratch / "head" / case, runs["rev"], runs["head"])
            print(f"{case}: " + "; ".join(f"{kind} {found or 'same'}" for kind, found in verdicts.items()))
            first = first or next((found for found in verdicts.values() if found), None)
    except subprocess.CalledProcessError as exc:
        print(f"{' '.join(exc.cmd)} failed with exit status {exc.returncode}", file=sys.stderr)
        return 2
    finally:
        try:
            if base_tree.exists():
                git("worktree", "remove", "--force", str(base_tree))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    if first:
        print(f"differs from {rev}: {first}")
        return 1
    print(f"same as {rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
