"""Metamorphic relations over whole runs: two `run_all` runs whose inputs
differ only in what the method must not see give the same data rows. A
relation needs no oracle, so it cannot share an oracle's misreading.

- Row order: shuffling the data rows of every fixture file changes only the
  digest stamps. Every CSV artifact's non-`#` lines (each snapshot's
  included) and every JSON artifact outside `metadata` are byte-identical.
- Country order and case: `--countries` in another order and in lower case
  changes no byte, stamps included, from a run over the same codes sorted
  in capitals, or over the default list.
- The continent of a country: with global LOOCV folds, moving one country to
  another continent of the map changes continent rows of the metrics files,
  but no `Overall` row.
- Count scaling: multiplying every male count of one eligible country with
  a truth row by 3 changes no data row but that country's snapshot. Each
  rate is (3p)/(3t) of exact integers, the same correctly rounded double.
- Truth shift: adding 1.0 to every male truth value keeps the male
  `metric_corr`, `n` and `metric_corr_stars`; within 1e-9 the male
  intercept moves by 1.0 and the slope, `residual_se` and every male
  prediction interval's width stay. No female or upstream data row changes.
- A new truth row: giving the first predicted (country, sex) a truth value
  takes it out of `predictions.csv`, grows that sex's `n_pairs` by one and
  keeps every other predicted country predicted.
- A bystander: dropping the fixture of a country that is ineligible in
  both sexes and has no truth row (PT on the seed-5 world; the demo has
  none) takes its two rows out of `estimates.csv` and its snapshot away,
  and changes no other data row.
- Collect mode: a world collected live, through `bench/live_driver.py`'s
  fake upstream and its seeded 429s, gives the data rows of every artifact
  past the snapshots, and the JSON outside `metadata`, of the fixture-mode
  run. It runs on the world alone: `LiveRun` reads a world's directory.

Each relation runs on the bundled demo and on a seeded 60-country world
from `bench/world.py`, and is shown to fail on a bug planted by the test.
"""

from __future__ import annotations

import importlib.util
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

from admac import indicators, ingest, pipeline
from admac.cli import main
from admac.domain import AGE_GROUP_LOWERS, ParentFilter, Sex, iso2_code
from admac.errors import RateLimited
from admac.ingest import DEFAULT_EXCLUDED, fixture_countries
from admac.pipeline import RunConfig, packaged_data_path, run_all
from admac.stats import loocv, ols_fit_xy
from conftest import generate_world, read_csv

WORLD_SEED = 5
WORLD_COUNTRIES = 60
DEMO_SEED = 42
SHUFFLE_SEED = 7
SCALE = 3  # 20, the floor, is no multiple of it, so no scaled count lands on the floor
SHIFT = 1.0
LIVE_DRIVER = Path(__file__).resolve().parents[1] / "bench" / "live_driver.py"
BYSTANDER = "PT"  # on the seed-5 world: lower_bound_cell in both sexes, no truth row


@pytest.fixture(scope="module", params=["demo", "world"])
def inputs(request, tmp_path_factory):
    """(root, fixture dir, truth table, seed) of one workload; root is a scratch directory."""
    root = tmp_path_factory.mktemp(request.param)
    if request.param == "demo":
        return root, packaged_data_path("fixtures"), packaged_data_path("ground_truth.csv"), DEMO_SEED
    return root, *generate_world(root, WORLD_SEED, WORLD_COUNTRIES), WORLD_SEED


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


def moved_map(iso2: str, path: Path) -> Path:
    """The bundled continent map, written to `path`, with `iso2` moved to
    Europe, or to Asia when it is in Europe."""
    text = packaged_data_path("continents.csv").read_text(encoding="utf-8")
    line = next(line for line in text.splitlines(keepends=True) if line.startswith(f"{iso2},"))
    continent = "Asia" if line.strip().endswith(",Europe") else "Europe"
    path.write_text(text.replace(line, f"{iso2},{continent}\n"), encoding="utf-8")
    return path


def metrics_rows(out_dir: Path, fixtures: Path, truth: Path, seed: int, continent_map: Path) -> dict:
    """sex -> (continent rows, Overall row) of metrics_<sex>.csv after a run with global LOOCV folds."""
    run_all(RunConfig(out_dir, fixture_dir=fixtures, truth_path=truth, seed=seed,
                      continent_map_path=continent_map, loocv_scope="global"))
    rows = {}
    for sex in ("female", "male"):
        text = (out_dir / f"metrics_{sex}.csv").read_text(encoding="utf-8")
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        assert lines[-1].startswith("Overall,")
        rows[sex] = (lines[1:-1], lines[-1])
    return rows


def runs_before_and_after_a_move(root: Path, fixtures: Path, truth: Path, seed: int) -> tuple[dict, dict]:
    """`metrics_rows` over the bundled continent map, then over a copy that
    moves the first country with a fixture and a truth row."""
    with open(truth, encoding="utf-8") as handle:
        matched = {line.split(",")[0] for line in handle} & set(fixture_countries(fixtures))
    iso2 = min(matched)
    plain = metrics_rows(root / "map-out", fixtures, truth, seed, packaged_data_path("continents.csv"))
    moved = metrics_rows(root / "moved-map-out", fixtures, truth, seed, moved_map(iso2, root / "moved.csv"))
    assert any(moved[sex][0] != plain[sex][0] for sex in plain), f"moving {iso2} changed no continent row"
    return plain, moved


def test_moving_a_country_to_another_continent_keeps_each_global_overall_row(inputs):
    plain, moved = runs_before_and_after_a_move(*inputs)
    assert [overall for _, overall in moved.values()] == [overall for _, overall in plain.values()]


def test_continent_relation_catches_a_global_loocv_that_folds_per_continent(tmp_path, monkeypatch):
    # planted bug: global scope refits within the held-out pair's continent
    def folds_per_continent(pairs, continent_of, scope):
        return loocv(pairs, continent_of, "continent")

    monkeypatch.setattr(pipeline, "loocv", folds_per_continent)
    fixtures, truth = packaged_data_path("fixtures"), packaged_data_path("ground_truth.csv")
    plain, moved = runs_before_and_after_a_move(tmp_path, fixtures, truth, DEMO_SEED)
    assert all(moved[sex][1] != plain[sex][1] for sex in plain)


def scaled_copy(fixtures: Path, out_dir: Path, iso2: str, sex: str) -> Path:
    """`fixtures` copied to `out_dir`, with every `sex` count of `iso2` multiplied by SCALE."""
    shutil.copytree(fixtures, out_dir)
    path = out_dir / f"{iso2}.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    scaled = []
    for line in lines:
        fields = line.split(",")
        if len(fields) == 7 and fields[1] == sex:
            fields[5] = str(int(fields[5]) * SCALE)
        scaled.append(",".join(fields))
    assert scaled != lines
    path.write_text("".join(scaled), encoding="utf-8")
    return out_dir


def count_scaling_changes(root: Path, fixtures: Path, truth: Path, seed: int) -> tuple[str, set[str]]:
    """The first country with an eligible male estimate and a male truth row, and the
    artifacts whose data rows change when its male counts are scaled by SCALE."""
    plain = run(root / "scale-out", fixtures, truth, seed)
    _, _, truth_rows = read_csv(truth)
    _, _, estimates = read_csv(root / "scale-out" / "estimates.csv")
    matched = {row[0] for row in truth_rows if row[1] == "male"}
    iso2 = min(row[0] for row in estimates if row[1:4:2] == ["male", "true"] and row[0] in matched)
    scaled = run(root / "scaled-out", scaled_copy(fixtures, root / "scaled", iso2, "male"), truth, seed)
    assert scaled.keys() == plain.keys()
    return iso2, {name for name in plain if plain[name] != scaled[name]}


def test_scaling_one_country_s_counts_changes_only_its_snapshot(inputs):
    iso2, changed = count_scaling_changes(*inputs)
    assert changed == {f"snapshots/{iso2}.csv"}


def test_count_scaling_relation_catches_an_estimate_over_both_sexes_totals(tmp_path, monkeypatch):
    # planted bug: each sex's rates divide its parents by both sexes' totals of the age group
    estimate = pipeline.estimate_country

    def both_sexes_totals(snapshot, sex, policy):
        cells = dict(snapshot.cells)
        for lower in AGE_GROUP_LOWERS:
            keys = [(s, lower, ParentFilter.ALL) for s in (sex, Sex.FEMALE if sex is Sex.MALE else Sex.MALE)]
            if all(key in cells for key in keys):
                cells[keys[0]] = cells[keys[0]]._replace(count=sum(snapshot.cells[key].count for key in keys))
        return estimate(snapshot._replace(cells=cells), sex, policy)

    monkeypatch.setattr(pipeline, "estimate_country", both_sexes_totals)
    fixtures, truth = packaged_data_path("fixtures"), packaged_data_path("ground_truth.csv")
    iso2, changed = count_scaling_changes(tmp_path, fixtures, truth, DEMO_SEED)
    assert {f"snapshots/{iso2}.csv", "estimates.csv", "metrics_male.csv", "model_male.json"} <= changed


def shifted_truth(truth: Path, path: Path) -> Path:
    """`truth`, written to `path`, with SHIFT added to every male value."""
    lines = []
    for line in truth.read_text(encoding="utf-8").splitlines(keepends=True):
        fields = line.split(",")
        if len(fields) == 4 and fields[1] == "male":
            fields[2] = repr(float(fields[2]) + SHIFT)
        lines.append(",".join(fields))
    path.write_text("".join(lines), encoding="utf-8")
    return path


def truth_shift_changes(root: Path, fixtures: Path, truth: Path, seed: int) -> dict[str, object]:
    """What shifting the male truth by SHIFT changes: whether the male `metric_corr`,
    `n` and `metric_corr_stars` and every female or upstream data row stay, and the
    male intercept, slope, `residual_se` and largest interval width moves."""
    plain_dir, shifted_dir = root / "shift-out", root / "shifted-out"
    plain = run(plain_dir, fixtures, truth, seed)
    shifted = run(shifted_dir, fixtures, shifted_truth(truth, root / "shifted.csv"), seed)

    def male_metrics(out):
        _, header, rows = read_csv(out / "metrics_male.csv")
        kept = [header.index(name) for name in ("continent", "metric_corr", "n", "metric_corr_stars")]
        return [[row[i] for i in kept] for row in rows]

    def intervals(out):
        _, _, rows = read_csv(out / "predictions.csv")
        return {(row[0], row[1]): (float(row[5]) - float(row[4]), row) for row in rows}

    upstream = [name for name in plain if name.startswith("snapshots/")]
    upstream += ["estimates.csv", "metrics_female.csv", "model_female.json"]
    before, after = intervals(plain_dir), intervals(shifted_dir)
    assert after.keys() == before.keys() and any(sex == "male" for _, sex in before)
    models = [json.loads((out / "model_male.json").read_text(encoding="utf-8"))["model"] for out in (plain_dir, shifted_dir)]
    return {
        "kept": male_metrics(shifted_dir) == male_metrics(plain_dir)
        and all(shifted[name] == plain[name] for name in upstream)
        and all(after[key][1] == before[key][1] for key in before if key[1] == "female"),
        "intercept": models[1]["intercept"] - models[0]["intercept"],
        "slope": models[1]["slope"] - models[0]["slope"],
        "residual_se": models[1]["residual_se"] - models[0]["residual_se"],
        "width": max(abs(after[key][0] - before[key][0]) for key in before),
    }


def test_shifting_the_male_truth_moves_only_the_intercept(inputs):
    changes = truth_shift_changes(*inputs)
    assert changes["kept"]
    assert abs(changes["intercept"] - SHIFT) <= 1e-9
    for name in ("slope", "residual_se", "width"):
        assert abs(changes[name]) <= 1e-9, (name, changes[name])


def test_truth_shift_relation_catches_a_fit_of_mac_fb_on_the_truth(tmp_path, monkeypatch):
    # planted bug: calibrate and predict regress mac_fb on mac_truth, the wrong way round
    def swapped(pairs):
        return ols_fit_xy([p.mac_truth for p in pairs], [p.mac_fb for p in pairs])

    monkeypatch.setattr(pipeline, "ols_fit", swapped)
    fixtures, truth = packaged_data_path("fixtures"), packaged_data_path("ground_truth.csv")
    changes = truth_shift_changes(tmp_path, fixtures, truth, DEMO_SEED)
    assert changes["kept"]  # the metrics do not fit a model
    assert abs(changes["intercept"] - SHIFT) > 1e-9


def new_truth_row_changes(root: Path, fixtures: Path, truth: Path, seed: int) -> tuple[tuple[str, str], dict]:
    """The first predicted (country, sex) without a truth row, and before and after a truth row
    for it at its predicted value is added: the predicted (country, sex) keys and that sex's `n_pairs`."""
    plain_dir, added_dir = root / "truth-row-out", root / "added-row-out"
    run(plain_dir, fixtures, truth, seed)
    known = {tuple(row[:2]) for row in read_csv(truth)[2]}
    predicted = read_csv(plain_dir / "predictions.csv")[2]
    iso2, sex, _, mac_predicted = next(row for row in predicted if tuple(row[:2]) not in known)[:4]
    added = root / "added.csv"
    added.write_text(truth.read_text(encoding="utf-8") + f"{iso2},{sex},{mac_predicted},2010-2017\n", encoding="utf-8")
    run(added_dir, fixtures, added, seed)
    return (iso2, sex), {
        name: (
            [tuple(row[:2]) for row in read_csv(out / "predictions.csv")[2]],
            json.loads((out / f"model_{sex}.json").read_text(encoding="utf-8"))["sample"]["n_pairs"],
        )
        for name, out in (("before", plain_dir), ("after", added_dir))
    }


def test_a_new_truth_row_moves_its_country_from_predicted_to_paired(inputs):
    key, runs = new_truth_row_changes(*inputs)
    (predicted, n_pairs), (predicted_after, n_pairs_after) = runs["before"], runs["after"]
    assert predicted_after == [k for k in predicted if k != key]
    assert n_pairs_after == n_pairs + 1


def test_new_truth_row_relation_catches_a_predict_of_the_matched_countries(tmp_path, monkeypatch):
    # planted bug: every sex's join hands its matched countries to predict as well
    join = pipeline.join_pairs

    def predicts_the_matched(estimates, truth):
        result = join(estimates, truth)
        matched = [(p.country, p.sex, p.mac_fb) for p in result.pairs]
        return result._replace(unmatched_estimates=result.unmatched_estimates + matched)

    monkeypatch.setattr(pipeline, "join_pairs", predicts_the_matched)
    fixtures, truth = packaged_data_path("fixtures"), packaged_data_path("ground_truth.csv")
    key, runs = new_truth_row_changes(tmp_path, fixtures, truth, DEMO_SEED)
    assert key in runs["after"][0]
    assert runs["after"][1] == runs["before"][1] + 1


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """(fixture dir, truth table) of the seed-5 60-country world."""
    return generate_world(tmp_path_factory.mktemp("world"), WORLD_SEED, WORLD_COUNTRIES)


def bystander_runs(root: Path, fixtures: Path, truth: Path) -> tuple[dict[str, str], dict[str, str]]:
    """`data_rows` of a run over `fixtures`, and of one over a copy without BYSTANDER's file."""
    plain = run(root / "plain-out", fixtures, truth, WORLD_SEED)
    shutil.copytree(fixtures, root / "dropped")
    (root / "dropped" / f"{BYSTANDER}.csv").unlink()
    return plain, run(root / "dropped-out", root / "dropped", truth, WORLD_SEED)


def test_dropping_a_bystander_takes_out_only_its_estimates(world, tmp_path):
    fixtures, truth = world
    assert BYSTANDER not in {row[0] for row in read_csv(truth)[2]}
    plain, dropped = bystander_runs(tmp_path, fixtures, truth)
    estimates = plain["estimates.csv"].splitlines(keepends=True)
    own = [line for line in estimates if line.startswith(f"{BYSTANDER},")]
    assert own == [f"{BYSTANDER},{sex},,false,lower_bound_cell\n" for sex in ("female", "male")]
    assert dropped.keys() == plain.keys() - {f"snapshots/{BYSTANDER}.csv"}
    assert dropped["estimates.csv"] == "".join(line for line in estimates if line not in own)
    assert all(dropped[name] == plain[name] for name in dropped if name != "estimates.csv")


def test_bystander_relation_catches_an_estimate_that_skips_the_floor_check(world, tmp_path, monkeypatch):
    # planted bug: estimate_country compares the counts with a floor no count reaches
    monkeypatch.setattr(indicators, "LOWER_BOUND_COUNT", -1)
    plain, dropped = bystander_runs(tmp_path, *world)
    predicted = [line for line in plain["predictions.csv"].splitlines() if line.startswith(f"{BYSTANDER},")]
    assert len(predicted) == 2
    assert dropped["predictions.csv"] != plain["predictions.csv"]


def live_driver():
    """`bench/live_driver.py` as a module, loaded from its file; the `bench/`
    entry it puts on sys.path to import `bench/world.py` is taken out again."""
    spec = importlib.util.spec_from_file_location("live_driver", LIVE_DRIVER)
    module = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def collect_mode_runs(root: Path, world: Path, seed: int) -> tuple[dict[str, str], dict[str, str], dict]:
    """`data_rows` of a live run of `world` through the fake upstream and of a
    fixture-mode run of it, and the live run's report of calls and retries."""
    live = live_driver().LiveRun(world, root / "live-out", root / "live-cache", seed)
    run_all(live.cfg, live.collector())
    fixture = run(root / "fixture-out", world / "fixtures", world / "truth.csv", seed)
    return data_rows(root / "live-out"), fixture, live.report()


def past_collect(rows: dict[str, str]) -> dict[str, str]:
    """`rows` without the snapshots, whose `collected_at` tells the two modes apart."""
    return {name: text for name, text in rows.items() if not name.startswith("snapshots/")}


def test_collecting_live_gives_the_data_rows_of_fixture_mode(small_worlds, tmp_path):
    fixtures, _ = small_worlds["world-60"]
    live, fixture, report = collect_mode_runs(tmp_path, fixtures.parent, WORLD_SEED)
    assert report["throttled"] > 0 and report["sleeps"] == report["throttled"]
    assert live.keys() == fixture.keys()
    assert past_collect(live) == past_collect(fixture)


def test_collect_mode_relation_catches_a_retried_cell_recorded_as_zero(small_worlds, tmp_path, monkeypatch):
    # planted bug: a query that was throttled, then answered, is recorded with count 0
    reach, throttled = ingest.AdsApiClient.reach_estimate, set()

    def zero_once_retried(client, iso2, key):
        try:
            count = reach(client, iso2, key)
        except RateLimited:
            throttled.add((iso2, key))
            raise
        return 0 if (iso2, key) in throttled else count

    monkeypatch.setattr(ingest.AdsApiClient, "reach_estimate", zero_once_retried)
    fixtures, _ = small_worlds["world-60"]
    live, fixture, _ = collect_mode_runs(tmp_path, fixtures.parent, WORLD_SEED)
    assert throttled
    assert live["estimates.csv"] != fixture["estimates.csv"]
