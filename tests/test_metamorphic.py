"""Metamorphic relations over whole runs: two `run_all` runs whose inputs
differ only in what the method must not see give the same data rows. A
relation needs no oracle, so it cannot share an oracle's misreading.

- Row order: shuffling the data rows of every fixture file changes only the
  digest stamps. Every CSV artifact's non-`#` lines (each snapshot's
  included) and every JSON artifact outside `metadata` are byte-identical.
- Country order and case: `--countries` in another order and in lower case
  changes no byte, stamps included, from a run over the same codes sorted
  in capitals, or over the default list.

Each relation runs on the bundled demo and on a seeded 60-country world
from `bench/world.py`, and is shown to fail on a bug planted by the test.
"""

from __future__ import annotations

import importlib.util
import json
import random
from pathlib import Path

import pytest

from admac import ingest
from admac.cli import main
from admac.domain import iso2_code
from admac.ingest import DEFAULT_EXCLUDED, fixture_countries
from admac.pipeline import RunConfig, packaged_data_path, run_all

WORLD_SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "world.py"
WORLD_SEED = 5
WORLD_COUNTRIES = 60
DEMO_SEED = 42
SHUFFLE_SEED = 7


def _generate_world(out_dir: Path) -> None:
    spec = importlib.util.spec_from_file_location("world", WORLD_SCRIPT)
    world = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(world)
    world.generate_world(out_dir, packaged_data_path("continents.csv"), WORLD_SEED, n_countries=WORLD_COUNTRIES)


@pytest.fixture(scope="module", params=["demo", "world"])
def inputs(request, tmp_path_factory):
    """(root, fixture dir, truth table, seed) of one workload; root is a scratch directory."""
    root = tmp_path_factory.mktemp(request.param)
    if request.param == "demo":
        return root, packaged_data_path("fixtures"), packaged_data_path("ground_truth.csv"), DEMO_SEED
    _generate_world(root)
    return root, root / "fixtures", root / "truth.csv", WORLD_SEED


def shuffled_copy(fixtures: Path, out_dir: Path) -> Path:
    """`fixtures` with the data rows of every file in a seeded random order."""
    rng = random.Random(SHUFFLE_SEED)
    out_dir.mkdir()
    moved = 0
    for path in sorted(fixtures.glob("*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        head = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        rows = lines[head:]
        rng.shuffle(rows)
        moved += rows != lines[head:]
        (out_dir / path.name).write_text("".join(lines[:head] + rows), encoding="utf-8")
    assert moved, "the shuffle left every file as it was"
    return out_dir


def data_rows(out_dir: Path) -> dict[str, str]:
    """Each artifact under `out_dir` without its digest stamps: a CSV's non-`#`
    lines, a JSON document's text outside `metadata`."""
    rows = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv":
            text = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
        else:
            document = json.loads(text)
            del document["metadata"]
            text = json.dumps(document, indent=2, sort_keys=True)
        rows[str(path.relative_to(out_dir))] = text
    return rows


def run(out_dir: Path, fixtures: Path, truth: Path, seed: int) -> dict[str, str]:
    run_all(RunConfig(out_dir, fixture_dir=fixtures, truth_path=truth, seed=seed))
    return data_rows(out_dir)


def test_fixture_row_order_changes_no_data_row(inputs):
    root, fixtures, truth, seed = inputs
    shuffled = shuffled_copy(fixtures, root / "shuffled")
    assert run(root / "shuffled-out", shuffled, truth, seed) == run(root / "out", fixtures, truth, seed)


def test_row_order_relation_catches_a_collect_that_keeps_file_order(tmp_path, monkeypatch):
    # planted bug: each snapshot takes its cells in fixture-file order, not in canonical order
    collect = ingest.Collector.collect_snapshots

    def in_file_order(collector, countries):
        snapshots = collect(collector, countries)
        return [s._replace(cells=collector._store.cells(s.country)) for s in snapshots]

    monkeypatch.setattr(ingest.Collector, "collect_snapshots", in_file_order)
    fixtures, truth = packaged_data_path("fixtures"), packaged_data_path("ground_truth.csv")
    plain = run(tmp_path / "out", fixtures, truth, DEMO_SEED)
    shuffled = run(tmp_path / "shuffled-out", shuffled_copy(fixtures, tmp_path / "shuffled"), truth, DEMO_SEED)
    changed = {name for name in plain if plain[name] != shuffled[name]}
    assert changed == {f"snapshots/{path.name}" for path in fixtures.glob("*.csv")}


def run_cli(
    out_dir: Path, fixtures: Path, truth: Path, seed: int, countries: list[str] | None = None
) -> dict[str, bytes]:
    """Every artifact's bytes after `admac all`, over `countries` when given."""
    argv = ["all", "--out", str(out_dir), "--fixture-dir", str(fixtures), "--truth", str(truth)]
    argv += ["--seed", str(seed)]
    if countries is not None:
        argv += ["--countries", ",".join(countries)]
    assert main(argv) == 0
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}


def test_country_order_and_case_change_no_byte(inputs):
    root, fixtures, truth, seed = inputs
    codes = [code for code in fixture_countries(fixtures) if code not in DEFAULT_EXCLUDED]
    plain = run_cli(root / "plain-out", fixtures, truth, seed)
    assert run_cli(root / "sorted-out", fixtures, truth, seed, codes) == plain
    reversed_lower = [code.lower() for code in reversed(codes)]
    assert run_cli(root / "lower-out", fixtures, truth, seed, reversed_lower) == plain


def test_country_order_relation_catches_a_config_that_keeps_the_given_order(tmp_path, monkeypatch):
    # planted bug: RunConfig checks each code but keeps the list in the order given
    init = RunConfig.__init__

    def keeps_order(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if kwargs.get("countries") is not None:
            self.countries = tuple(iso2_code(code) for code in kwargs["countries"])

    monkeypatch.setattr(RunConfig, "__init__", keeps_order)
    fixtures, truth = packaged_data_path("fixtures"), packaged_data_path("ground_truth.csv")
    plain = run_cli(tmp_path / "plain-out", fixtures, truth, DEMO_SEED)
    reversed_lower = [code.lower() for code in reversed(fixture_countries(fixtures))]
    reordered = run_cli(tmp_path / "lower-out", fixtures, truth, DEMO_SEED, reversed_lower)
    # the snapshots hold the same cells; the estimates come in another order, and every
    # later artifact is stamped with their digest
    changed = {name for name in plain if plain[name] != reordered[name]}
    assert changed == {name for name in plain if not name.startswith("snapshots/")}
