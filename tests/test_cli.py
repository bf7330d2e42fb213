from __future__ import annotations

import codecs
import errno
import gc
import hashlib
import importlib.util
import json
import logging
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import admac
from admac import pipeline
from admac.cli import main
from admac.domain import MAX_COUNT, Sex
from admac.errors import AuthError, ParseError
from admac.fileio import sha256_file, write_json
from admac.indicators import LowerBoundPolicy
from admac.ingest import TOKEN_ENV_VAR, Collector, CollectorConfig, Mode
from admac.pipeline import RunConfig, _model_payload, load_estimates, packaged_data_path, run_all
from admac.stats import CalibrationModel, ols_fit_xy
from conftest import full_fixture_rows, generate_world, read_csv, write_fixture


def run_cli(*args):
    return main([str(a) for a in args])


def read_err(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.err.strip().splitlines()[-1])


def outputs_of(out_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def test_full_run_on_bundled_fixture(tmp_path):
    out = tmp_path / "out"
    assert run_cli("all", "--out", out, "--seed", 11) == 0
    names = set(outputs_of(out))
    assert "estimates.csv" in names
    assert "metrics_female.csv" in names and "metrics_male.csv" in names
    assert "model_female.json" in names and "model_male.json" in names
    assert "predictions.csv" in names and "map.geojson" in names
    assert sum(1 for n in names if n.startswith("snapshots/")) == 21
    # every artifact carries the seed in its metadata header
    meta, _, rows = read_csv(out / "estimates.csv")
    assert meta["seed"] == "11"
    assert meta["tool"].startswith("admac ")
    assert len(rows) == 42  # 21 countries x 2 sexes
    model = json.loads((out / "model_male.json").read_text())
    assert model["metadata"]["seed"] == "11"
    geo = json.loads((out / "map.geojson").read_text())
    assert geo["metadata"]["seed"] == "11"


def test_all_equals_stage_sequence(tmp_path):
    combined = tmp_path / "combined"
    staged = tmp_path / "staged"
    assert run_cli("all", "--out", combined, "--seed", 3) == 0
    for command in ("collect", "estimate", "validate", "calibrate", "predict"):
        assert run_cli(command, "--out", staged, "--seed", 3) == 0
    assert outputs_of(combined) == outputs_of(staged)


def test_all_equals_stage_sequence_with_a_stale_snapshot(tmp_path):
    # collect removes a snapshot it did not write, so neither `all` nor the
    # estimate command estimates one left by an earlier run
    assert run_cli("collect", "--out", tmp_path / "earlier", "--countries", "IT", "--seed", 42) == 0
    text = (tmp_path / "earlier" / "snapshots" / "IT.csv").read_text(encoding="utf-8")
    combined = tmp_path / "combined"
    staged = tmp_path / "staged"
    for out in (combined, staged):
        (out / "snapshots").mkdir(parents=True)
        (out / "snapshots" / "ZZ.csv").write_text(text.replace("\nIT,", "\nZZ,"), encoding="utf-8")
    assert run_cli("all", "--out", combined, "--seed", 42) == 0
    for command in ("collect", "estimate", "validate", "calibrate", "predict"):
        assert run_cli(command, "--out", staged, "--seed", 42) == 0
    assert outputs_of(combined) == outputs_of(staged)
    _, _, rows = read_csv(combined / "estimates.csv")
    assert "ZZ" not in [row[0] for row in rows]
    for out in (combined, staged):
        assert not (out / "snapshots" / "ZZ.csv").exists()


def test_estimate_from_memory_equals_estimate_from_files(tmp_path):
    from admac.pipeline import RunConfig, stage_collect, stage_estimate
    from conftest import full_fixture_rows, write_fixture

    fixtures = tmp_path / "fixtures"
    write_fixture(fixtures, "IT", full_fixture_rows())
    write_fixture(fixtures, "FR", full_fixture_rows()[:-1])  # one cell missing
    write_fixture(fixtures, "NG", [])  # no cells at all
    cfg = RunConfig(output_dir=tmp_path / "out", fixture_dir=fixtures, seed=3)
    collected = []
    stage_collect(cfg, collected=collected)
    assert [path.name for path, _, _ in collected] == ["FR.csv", "IT.csv", "NG.csv"]
    for path, digest, _ in collected:
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    in_memory = stage_estimate(cfg, collected)[0].read_bytes()
    from_files = stage_estimate(cfg)[0].read_bytes()
    assert in_memory == from_files
    assert in_memory.count(b",false,incomplete_snapshot") == 3


SIXTEEN = "AR,AU,BR,CA,CL,CO,DE,EG,ES,FR,IN,IT,JP,KE,MX,NG"


def test_narrower_rerun_equals_a_fresh_run(tmp_path):
    # a rerun over fewer countries estimates only those, not the earlier run's snapshots too
    narrow, fresh = tmp_path / "narrow", tmp_path / "fresh"
    assert run_cli("all", "--seed", 42, "--out", narrow) == 0
    for out in (narrow, fresh):
        assert run_cli("all", "--seed", 42, "--countries", SIXTEEN, "--out", out) == 0
    for name in ("estimates.csv", "metrics_female.csv", "metrics_male.csv", "predictions.csv", "map.geojson"):
        assert (narrow / name).read_bytes() == (fresh / name).read_bytes(), name
    assert sorted(p.name for p in (narrow / "snapshots").iterdir()) == [f"{c}.csv" for c in SIXTEEN.split(",")]
    assert outputs_of(narrow) == outputs_of(fresh)


def test_collect_warns_once_naming_each_snapshot_it_removes(tmp_path, caplog):
    out = tmp_path / "out"
    assert run_cli("collect", "--out", out, "--countries", "FR,IT,NG,PL") == 0
    with caplog.at_level("WARNING", logger="admac.pipeline"):
        assert run_cli("collect", "--out", out, "--countries", "IT,FR") == 0
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == ["FR.csv", "IT.csv"]
    removals = [r.getMessage() for r in caplog.records if "removed snapshots" in r.getMessage()]
    assert removals == ["collect: removed snapshots it did not write: NG.csv, PL.csv"]


def test_failed_narrower_collect_keeps_the_earlier_snapshots(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("all", "--seed", 42, "--out", out) == 0
    before = outputs_of(out)
    capsys.readouterr()
    assert run_cli("collect", "--seed", 42, "--out", out, "--countries", "IT,SY") == 1
    assert _one_line_report(capsys)["error"] == "ExcludedCountry"
    assert sum(1 for p in (out / "snapshots").iterdir()) == 21
    assert outputs_of(out) == before


def test_collect_that_fails_part_way_leaves_the_earlier_snapshots(tmp_path, capsys, monkeypatch):
    # the new set replaces snapshots/ whole or not at all, so a full disk part way
    # through leaves no mix of two runs' snapshots for a later estimate to read
    out = tmp_path / "out"
    assert run_cli("all", "--seed", 42, "--out", out) == 0
    before = outputs_of(out)
    write, calls = pipeline.write_cells_csv, []

    def fail_the_tenth(path, *args, **kwargs):
        calls.append(path)
        if len(calls) == 10:
            raise OSError(errno.ENOSPC, "No space left on device")
        return write(path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "write_cells_csv", fail_the_tenth)
    capsys.readouterr()
    assert run_cli("collect", "--seed", 7, "--out", out) == 1
    assert _one_line_report(capsys) == {
        "error": "OSError", "message": "[Errno 28] No space left on device", "command": "collect",
    }
    assert len(calls) == 10
    monkeypatch.undo()
    assert outputs_of(out) == before
    assert list(out.rglob(".*")) == []
    fresh = tmp_path / "fresh"
    for directory in (out, fresh):
        assert run_cli("all", "--seed", 42, "--out", directory) == 0
    assert outputs_of(out) == outputs_of(fresh)


def test_collect_whose_swap_fails_puts_the_earlier_snapshots_back(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert run_cli("all", "--seed", 42, "--out", out) == 0
    before = outputs_of(out)
    rename = os.rename

    def refuse_the_new_set(src, dst):
        if Path(src).name.endswith(".tmp"):
            raise OSError(errno.EXDEV, "Invalid cross-device link")
        rename(src, dst)

    monkeypatch.setattr(os, "rename", refuse_the_new_set)
    capsys.readouterr()
    assert run_cli("collect", "--seed", 7, "--out", out, "--countries", "IT") == 1
    assert _one_line_report(capsys)["error"] == "OSError"
    monkeypatch.undo()
    assert outputs_of(out) == before
    assert list(out.rglob(".*")) == []


def test_collect_over_an_earlier_run_renames_twice_and_replaces_nothing(tmp_path, monkeypatch):
    # the directory swap is the one atomic step: each snapshot is a plain write into
    # the hidden directory, which then takes the place of the earlier set whole
    out = tmp_path / "out"
    assert run_cli("all", "--seed", 42, "--out", out) == 0
    rename, replace, renames, replaces = os.rename, os.replace, [], []
    monkeypatch.setattr(os, "rename", lambda src, dst: (renames.append((Path(src), Path(dst))), rename(src, dst)))
    monkeypatch.setattr(os, "replace", lambda src, dst, **kw: (replaces.append(dst), replace(src, dst, **kw)))
    assert run_cli("collect", "--seed", 7, "--out", out) == 0
    monkeypatch.undo()
    assert replaces == []
    assert len(renames) == 2, renames
    (old, aside), (staging, new) = renames
    assert old == new == out / "snapshots"
    assert aside.parent == staging.parent == out
    assert aside.name.startswith(".snapshots.") and aside.name.endswith(".old")
    assert staging.name.startswith(".snapshots.") and staging.name.endswith(".tmp")
    assert list(out.rglob(".*")) == []


@pytest.mark.parametrize("entry", ["file", "symlink"])
def test_collect_refuses_a_snapshots_entry_that_is_not_a_directory(tmp_path, capsys, entry):
    # only a real directory is moved aside, so the swap's rename fails on anything
    # else and leaves it as it was, with no hidden entry beside it
    out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
    out.mkdir()
    elsewhere.mkdir()
    (elsewhere / "IT.csv").write_text("kept\n", encoding="utf-8")
    snapshots = out / "snapshots"
    if entry == "file":
        snapshots.write_text("hi\n", encoding="utf-8")
    else:
        snapshots.symlink_to(elsewhere, target_is_directory=True)
    assert run_cli("collect", "--seed", 42, "--out", out) == 1
    assert _one_line_report(capsys)["error"] == "NotADirectoryError"
    assert os.listdir(out) == ["snapshots"]
    if entry == "file":
        assert snapshots.read_text(encoding="utf-8") == "hi\n"
    else:
        assert snapshots.is_symlink() and os.readlink(snapshots) == str(elsewhere)
    assert outputs_of(elsewhere) == {"IT.csv": b"kept\n"}


@pytest.mark.parametrize(
    "countries, error", [("AR,IT,SY", "ExcludedCountry"), ("IT,ZZ", "FixtureMiss")], ids=["excluded", "missing"]
)
def test_collect_that_fails_before_its_first_snapshot_creates_nothing(tmp_path, capsys, countries, error):
    out = tmp_path / "out"
    assert run_cli("collect", "--out", out, "--countries", countries) == 1
    assert _one_line_report(capsys)["error"] == error
    assert not out.exists()


def test_stage_requires_prior_stage(tmp_path, capsys):
    assert run_cli("validate", "--out", tmp_path / "empty") == 1
    report = read_err(capsys)
    assert report["error"] == "MissingStageInput"
    assert report["command"] == "validate"
    assert "estimate" in report["message"]


def test_estimate_requires_collect(tmp_path, capsys):
    assert run_cli("estimate", "--out", tmp_path / "empty") == 1
    assert read_err(capsys)["error"] == "MissingStageInput"


def test_estimate_over_an_empty_snapshots_directory(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "snapshots").mkdir(parents=True)
    assert run_cli("estimate", "--out", out) == 1
    report = _one_line_report(capsys)
    assert report["error"] == "MissingStageInput"
    assert report["message"].startswith(f"no snapshots under {out / 'snapshots'}")


def test_fixture_dir_without_fixtures_has_no_countries_to_collect(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    (tmp_path / "a_file").write_text("", encoding="utf-8")
    write_fixture(tmp_path / "excluded_only", "CU", full_fixture_rows())
    write_fixture(tmp_path / "excluded_only", "SY", full_fixture_rows())
    cases = {
        "absent": "does not exist",
        "a_file": "is not a directory",
        "empty": "holds no <ISO2>.csv file",
        "excluded_only": "holds only excluded countries: CU, SY",
    }
    for name, why in cases.items():
        for command in ("collect", "all"):
            fixtures, out = tmp_path / name, tmp_path / "out"
            assert run_cli(command, "--fixture-dir", fixtures, "--out", out) == 1, (name, command)
            report = _one_line_report(capsys)
            assert report["error"] == "ConfigError"
            assert report["message"] == f"no countries to collect: fixture directory {fixtures} {why}"
            assert not out.exists()


def test_calibrate_with_too_few_pairs(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("collect", "--out", out, "--countries", "IT,FR") == 0
    assert run_cli("estimate", "--out", out, "--countries", "IT,FR") == 0
    assert run_cli("calibrate", "--out", out) == 1
    report = read_err(capsys)
    assert report["error"] == "TooFewPoints"
    assert "calibrate/female" in report["message"]
    assert "2" in report["message"]


def test_explicitly_requested_excluded_country_fails(tmp_path, capsys):
    assert run_cli("collect", "--out", tmp_path / "out", "--countries", "CU") == 1
    assert read_err(capsys)["error"] == "ExcludedCountry"


def test_single_sex_run(tmp_path):
    out = tmp_path / "out"
    assert run_cli("all", "--out", out, "--sexes", "female") == 0
    names = set(outputs_of(out))
    assert "metrics_female.csv" in names and "metrics_male.csv" not in names
    assert "model_female.json" in names and "model_male.json" not in names
    geo = json.loads((out / "map.geojson").read_text())
    assert geo["metadata"]["sex"] == "female"
    _, _, rows = read_csv(out / "predictions.csv")
    assert rows and all(row[1] == "female" for row in rows)


def test_lower_bound_policy_flag_changes_eligibility(tmp_path):
    strict = tmp_path / "strict"
    relaxed = tmp_path / "relaxed"
    assert run_cli("all", "--out", strict) == 0
    assert run_cli("all", "--out", relaxed, "--lower-bound-policy", "parents-only") == 0
    _, _, strict_rows = read_csv(strict / "estimates.csv")
    _, _, relaxed_rows = read_csv(relaxed / "estimates.csv")
    # the demo floors parent cells, so the strict/relaxed split is identical
    # here, but the policy must be recorded and honored structurally
    strict_meta, _, _ = read_csv(strict / "estimates.csv")
    relaxed_meta, _, _ = read_csv(relaxed / "estimates.csv")
    assert strict_meta["lower_bound_policy"] == "any"
    assert relaxed_meta["lower_bound_policy"] == "parents-only"
    assert [r[:2] for r in strict_rows] == [r[:2] for r in relaxed_rows]


def test_metrics_file_shape(tmp_path):
    out = tmp_path / "out"
    assert run_cli("all", "--out", out, "--seed", 2) == 0
    meta, header, rows = read_csv(out / "metrics_male.csv")
    assert header == [
        "continent", "metric_corr", "metric_mape", "loocv_corr",
        "loocv_mape", "n", "metric_corr_stars", "loocv_corr_stars",
    ]
    assert rows[-1][0] == "Overall"
    continent_n = sum(int(r[5]) for r in rows[:-1])
    assert continent_n == int(rows[-1][5]) == int(meta["n_pairs"])
    for row in rows:
        assert float(row[2]) >= 0.0  # mape present for every group
        if row[1]:
            assert -1.0 <= float(row[1]) <= 1.0


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    out_from_file = tmp_path / "from_file"
    config = tmp_path / "run.conf"
    config.write_text(
        f"# demo config\nout = {out_from_file}\nseed = 99\nsexes = male\n",
        encoding="utf-8",
    )
    assert run_cli("all", "--config", config) == 0
    meta, _, _ = read_csv(out_from_file / "estimates.csv")
    assert meta["seed"] == "99"
    overridden = tmp_path / "overridden"
    assert run_cli("all", "--config", config, "--out", overridden, "--seed", 1) == 0
    meta, _, _ = read_csv(overridden / "estimates.csv")
    assert meta["seed"] == "1"


def test_config_file_with_a_byte_order_mark_reads_its_first_key(tmp_path):
    # spreadsheet and editor exports may open a UTF-8 file with U+FEFF
    config = tmp_path / "run.conf"
    config.write_bytes(codecs.BOM_UTF8 + f"seed = 99\nout = {tmp_path / 'out'}\n".encode())
    assert run_cli("all", "--config", config) == 0
    assert read_csv(tmp_path / "out" / "estimates.csv")[0]["seed"] == "99"


def test_truth_table_with_a_byte_order_mark_changes_only_the_truth_stamps(tmp_path):
    truth = packaged_data_path("ground_truth.csv")
    marked = tmp_path / "truth.csv"
    marked.write_bytes(codecs.BOM_UTF8 + truth.read_bytes())
    assert run_cli("all", "--seed", 42, "--out", tmp_path / "plain") == 0
    assert run_cli("all", "--seed", 42, "--truth", marked, "--out", tmp_path / "marked") == 0
    plain_digest, marked_digest = (hashlib.sha256(p.read_bytes()).hexdigest().encode() for p in (truth, marked))
    plain = outputs_of(tmp_path / "plain")
    assert sum(plain_digest in data for data in plain.values()) == 6  # two metrics, two models, predictions, map
    assert outputs_of(tmp_path / "marked") == {
        name: data.replace(plain_digest, marked_digest) for name, data in plain.items()
    }


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("volume = 11\n", encoding="utf-8")
    assert run_cli("all", "--config", config, "--out", tmp_path / "out") == 1
    assert read_err(capsys)["error"] == "ConfigError"


@pytest.mark.parametrize(
    "text, said",
    [(None, "config file {} not found"), ("seed 1\n", "{}:1: expected key=value")],
    ids=["absent", "line_without_equals_sign"],
)
def test_bad_config_file_reports_config_error(tmp_path, capsys, text, said):
    config = tmp_path / "run.conf"
    if text is not None:
        config.write_text(text, encoding="utf-8")
    assert run_cli("all", "--config", config, "--out", tmp_path / "out") == 1
    report = _one_line_report(capsys)
    assert report["error"] == "ConfigError"
    assert report["message"].startswith(said.format(config))
    assert not (tmp_path / "out").exists()


def test_bad_sexes_value(tmp_path, capsys):
    assert run_cli("all", "--out", tmp_path / "out", "--sexes", "other") == 1
    assert read_err(capsys)["error"] == "ConfigError"


def test_loocv_continent_scope_through_cli(tmp_path):
    out = tmp_path / "out"
    assert run_cli("collect", "--out", out) == 0
    assert run_cli("estimate", "--out", out) == 0
    assert run_cli("validate", "--out", out, "--loocv-scope", "continent") == 0
    meta, _, rows = read_csv(out / "metrics_male.csv")
    assert meta["loocv_scope"] == "continent"
    by_continent = {r[0]: r for r in rows}
    # the demo has 4 male pairs in Europe (enough for per-continent folds);
    # SouthAmerica's 3 support a direct correlation but no LOOCV of their own
    assert by_continent["Europe"][3] != ""
    assert by_continent["SouthAmerica"][1] != ""
    assert by_continent["SouthAmerica"][3] == ""


def test_live_mode_without_token_reports_auth_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ADS_API_TOKEN", raising=False)
    rc = run_cli("collect", "--out", tmp_path / "out", "--mode", "live", "--countries", "IT")
    assert rc == 1
    assert read_err(capsys)["error"] == "AuthError"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("admac ")


@pytest.mark.parametrize("flags,level", [([], logging.WARNING), (["-v"], logging.INFO), (["-vv"], logging.INFO)])
def test_verbose_flag_logs_at_info_however_often_it_is_given(tmp_path, capsys, monkeypatch, flags, level):
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: levels.append(kwargs["level"]))
    assert main(["all", *flags, "--seed", "abc", "--out", str(tmp_path / "out")]) == 1
    assert read_err(capsys)["error"] == "ConfigError"
    assert levels == [level]


def test_snapshot_outputs_carry_metadata(tmp_path):
    out = tmp_path / "out"
    assert run_cli("collect", "--out", out, "--countries", "IT", "--seed", 8) == 0
    text = (out / "snapshots" / "IT.csv").read_text()
    assert text.startswith("# tool=admac")
    assert "# seed=8" in text
    assert "# input_fixture_IT=" in text


def _one_line_report(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def _rewrite_first_eligible_row(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.endswith(",true,\n"):
            lines[i] = edit(line)
            break
    path.write_text("".join(lines), encoding="utf-8")


def _with_mac(mac: str):
    return lambda line: ",".join(line.split(",")[:2] + [mac] + line.split(",")[3:])


@pytest.mark.parametrize(
    "edit",
    [
        lambda line: line.replace(line.split(",")[2], "abc"),
        lambda line: line.replace(",true,\n", ",true,,extra\n"),
        lambda line: line.replace(",true,\n", ",yes,\n"),
        lambda line: line + line,
        _with_mac(""),
        _with_mac("nan"),
        lambda line: line.replace(",true,\n", ",false,lower_bound_cell\n"),
        lambda line: line.replace(",true,\n", ",true,lower_bound_cell\n"),
        lambda line: _with_mac("")(line).replace(",true,\n", ",false,\n"),
    ],
    ids=[
        "mac_not_a_number", "sixth_field", "eligible_not_boolean",
        "duplicate_row", "eligible_without_mac", "eligible_nan_mac", "ineligible_with_mac",
        "eligible_with_reason", "ineligible_without_reason",
    ],
)
def test_malformed_estimates_row_reports_parse_error(tmp_path, capsys, edit):
    out = tmp_path / "out"
    assert run_cli("all", "--out", out) == 0
    _rewrite_first_eligible_row(out / "estimates.csv", edit)
    capsys.readouterr()
    assert run_cli("validate", "--out", out) == 1
    report = _one_line_report(capsys)
    assert report["error"] == "ParseError"
    assert report["command"] == "validate"
    assert "(line " in report["message"]


def test_estimates_row_whose_iso2_is_not_in_capitals_reports_parse_error(tmp_path, capsys):
    # stage_estimate writes each code in capitals; "it" reads as a code, but no such row is written
    out = tmp_path / "out"
    assert run_cli("all", "--out", out, "--seed", 42) == 0
    path = out / "estimates.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("IT,female,"))
    lines[lineno - 1] = "it" + lines[lineno - 1][2:]
    path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("validate", "--out", out) == 1
    report = _one_line_report(capsys)
    assert report["error"] == "ParseError"
    assert "'it' is not in capitals" in report["message"]
    assert f"(line {lineno})" in report["message"]


@pytest.mark.parametrize(
    "command,row", [("predict", "KE,male,"), ("validate", "IT,male,"), ("calibrate", "IT,male,")]
)
def test_estimates_mac_outside_the_truth_window_reports_parse_error(tmp_path, demo_out, capsys, command, row):
    # KE has no truth row, so only predict uses its mac; IT,male is a validation pair
    out = tmp_path / "out"
    shutil.copytree(demo_out, out)
    path = out / "estimates.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(row))
    lines[lineno - 1] = _with_mac("1e200")(lines[lineno - 1])
    path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(command, "--out", out) == 1
    assert _one_line_report(capsys) == {
        "error": "ParseError",
        "message": f"{path}: mac 1e+200 outside [10, 60] (line {lineno})",
        "command": command,
    }


def test_estimates_mac_window_keeps_its_bounds_and_refuses_past_them(tmp_path):
    path = tmp_path / "estimates.csv"
    for mac, kept in (("10.0", True), ("60.0", True), ("9.999", False), ("60.001", False)):
        path.write_text(f"iso2,sex,mac,eligible,reason\nIT,male,{mac},true,\n", encoding="utf-8")
        if kept:
            assert [e.mac for e in load_estimates(path)] == [float(mac)]
            continue
        with pytest.raises(ParseError) as caught:
            load_estimates(path)
        assert str(caught.value) == f"{path}: mac {mac} outside [10, 60] (line 2)"


@pytest.mark.parametrize("count", [MAX_COUNT + 1, 10**400], ids=["two_to_the_53", "401_digits"])
@pytest.mark.parametrize("source", ["fixture", "snapshot"])
def test_cell_count_no_float_holds_reports_parse_error(tmp_path, capsys, count, source):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(packaged_data_path("fixtures"), fixtures)
    out = tmp_path / "out"
    if source == "snapshot":
        assert run_cli("collect", "--fixture-dir", fixtures, "--out", out) == 0
    path = fixtures / "IT.csv" if source == "fixture" else out / "snapshots" / "IT.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith("IT,male,30,34,parent_of_child_0_12m,"))
    fields = lines[lineno - 1].split(",")
    lines[lineno - 1] = ",".join(fields[:5] + [str(count)] + fields[6:])
    path.write_text("".join(lines), encoding="utf-8")
    command = "all" if source == "fixture" else "estimate"
    capsys.readouterr()
    assert run_cli(command, "--fixture-dir", fixtures, "--out", out) == 1
    report = _one_line_report(capsys)
    assert report["error"] == "ParseError" and report["command"] == command
    assert report["message"].startswith(f"{path}: audience count must be in [0, {MAX_COUNT}]")
    assert report["message"].endswith(f"(line {lineno})")


def _truncate(text: str) -> str:
    return text[: len(text) // 2]


def _drop_slope(text: str) -> str:
    document = json.loads(text)
    del document["model"]["slope"]
    return json.dumps(document)


def _nest_too_deep(text: str) -> str:
    return "[" * 100_000


@pytest.mark.parametrize(
    "edit", [_truncate, _drop_slope, _nest_too_deep], ids=["truncated", "missing_key", "nested_too_deep"]
)
def test_predict_ignores_a_malformed_model_file(tmp_path, edit):
    # model_<sex>.json is calibrate's report; predict fits its own model and reads none
    out = tmp_path / "out"
    assert run_cli("all", "--out", out) == 0
    model = out / "model_male.json"
    _assert_predict_ignores(out, edit(model.read_text(encoding="utf-8")))


def _assert_predict_ignores(out: Path, model_text: str) -> None:
    """Overwrite model_male.json with `model_text`; predict still exits 0 and
    rewrites predictions.csv byte for byte."""
    before = (out / "predictions.csv").read_bytes()
    (out / "model_male.json").write_text(model_text, encoding="utf-8")
    assert run_cli("predict", "--out", out) == 0
    assert (out / "predictions.csv").read_bytes() == before


@pytest.fixture(scope="module")
def demo_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo") / "out"
    assert run_cli("all", "--out", out) == 0
    return out


@pytest.mark.parametrize(
    "key,value",
    [
        ("slope", "abc"),
        ("intercept", True),
        ("df_resid", 2.5),
        ("n", None),
        ("residuals", [0.1, "x"]),
        ("residuals", 0.1),
        # values no fit produces; json writes and reads NaN and Infinity
        ("s_xx", 0),
        ("n", 0),
        ("s_xx", -5),
        ("residual_se", -1),
        ("slope", math.nan),
        ("f_stat", math.nan),
        ("residuals", [0.1, math.nan]),
        ("x_mean", math.inf),
    ],
    ids=[
        "string_slope", "bool_intercept", "float_df", "null_n", "string_residual", "scalar_residuals",
        "zero_s_xx", "zero_n", "negative_s_xx", "negative_residual_se", "nan_slope", "nan_f_stat",
        "nan_residual", "infinite_x_mean",
    ],
)
def test_predict_ignores_a_wrongly_typed_model_file(tmp_path, demo_out, key, value):
    out = tmp_path / "out"
    shutil.copytree(demo_out, out)
    document = json.loads((out / "model_male.json").read_text(encoding="utf-8"))
    document["model"][key] = value
    _assert_predict_ignores(out, json.dumps(document))


def _strict_json(text):
    """`text` parsed as strict JSON: NaN, Infinity and -Infinity raise ValueError."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_perfect_fit_model_writes_its_infinite_f_stat_as_null(tmp_path):
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            _strict_json(f'{{"f_stat": {token}}}')
    model = ols_fit_xy([1.0, 2.0, 3.0, 4.0], [3.0, 5.0, 7.0, 9.0])
    assert model.f_stat == math.inf and model.residual_se == 0.0
    path = tmp_path / "model_male.json"
    write_json(path, {}, {"model": _model_payload(model)})
    text = path.read_text(encoding="utf-8")
    assert '"f_stat": null' in text
    fields = _strict_json(text)["model"]
    assert fields.pop("stars") == {"intercept": "***", "slope": "***", "f": "***"}
    assert fields["f_stat"] is None
    assert CalibrationModel(**{**fields, "f_stat": math.inf, "residuals": tuple(fields["residuals"])}) == model


def test_calibrate_on_a_perfect_fit_reports_no_cv_of_its_zero_split_mapes(tmp_path):
    out = tmp_path / "out"
    for command in ("collect", "estimate"):
        assert run_cli(command, "--out", out, "--seed", 42) == 0
    truth = tmp_path / "truth.csv"  # each eligible estimate as its own truth
    eligible = [row for row in read_csv(out / "estimates.csv")[2] if row[3] == "true"]
    lines = "".join(f"{iso2},{sex},{mac},2010-2015\n" for iso2, sex, mac, _, _ in eligible)
    truth.write_text("iso2,sex,mac,period\n" + lines, encoding="utf-8")
    assert run_cli("calibrate", "--out", out, "--seed", 42, "--truth", truth) == 0
    for sex in ("female", "male"):
        document = _strict_json((out / f"model_{sex}.json").read_text(encoding="utf-8"))
        assert document["model"]["f_stat"] is None
        split = document["out_of_sample"]
        assert split["cv_run_mape_pct"] is None
        assert split["mean_mape_pct"] == 0.0


def test_predict_needs_no_model_file(tmp_path):
    full = tmp_path / "all"
    staged = tmp_path / "staged"
    assert run_cli("all", "--out", full, "--seed", 42) == 0
    for command in ("collect", "estimate", "predict"):
        assert run_cli(command, "--out", staged, "--seed", 42) == 0
    assert not list(staged.glob("model_*.json"))
    assert read_csv(staged / "predictions.csv")[1:] == read_csv(full / "predictions.csv")[1:]
    assert (staged / "map.geojson").read_bytes() == (full / "map.geojson").read_bytes()


def test_only_validate_reads_the_continent_map(tmp_path, capsys):
    absent = tmp_path / "absent.csv"
    full = tmp_path / "all"
    staged = tmp_path / "staged"
    assert run_cli("all", "--out", full, "--seed", 42) == 0
    for command in ("collect", "estimate"):
        assert run_cli(command, "--out", staged, "--seed", 42) == 0
    for command in ("calibrate", "predict"):
        assert run_cli(command, "--out", staged, "--seed", 42, "--continent-map", absent) == 0
    for name in ("model_female.json", "model_male.json", "predictions.csv", "map.geojson"):
        text = (staged / name).read_text(encoding="utf-8")
        assert "input_continents" not in text, name
        assert text == (full / name).read_text(encoding="utf-8"), name
    capsys.readouterr()
    assert run_cli("validate", "--out", staged, "--seed", 42, "--continent-map", absent) == 1
    report = _one_line_report(capsys)
    assert report["error"] == "MissingStageInput" and str(absent) in report["message"]


def test_repeated_continent_map_row_reports_parse_error(tmp_path, capsys):
    # a second IT row would otherwise score Italy under Africa in metrics_<sex>.csv
    bundled = packaged_data_path("continents.csv").read_text(encoding="utf-8")
    continents = tmp_path / "continents.csv"
    continents.write_text(bundled + "IT,Africa\n", encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli("all", "--out", out, "--seed", 42, "--continent-map", continents) == 1
    report = _one_line_report(capsys)
    assert report["error"] == "ParseError"
    assert str(continents) in report["message"] and "IT" in report["message"]
    assert f"(line {len(bundled.splitlines()) + 1})" in report["message"]
    assert not list(out.glob("metrics_*.csv"))


def _continent_map_without(iso2: str, path: Path) -> Path:
    """The bundled continent map, written to `path`, without the row of `iso2`."""
    lines = packaged_data_path("continents.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(f"{iso2},")]
    assert len(kept) == len(lines) - 1
    path.write_text("".join(kept), encoding="utf-8")
    return path


def test_a_paired_country_the_map_lacks_is_scored_under_unknown(tmp_path):
    # IT has a male pair on the demo; without its map row that pair is scored under
    # Unknown, and the Overall row still counts every pair
    continents = _continent_map_without("IT", tmp_path / "continents.csv")
    out = tmp_path / "out"
    assert run_cli("all", "--out", out, "--seed", 42, "--continent-map", continents) == 0
    _, header, rows = read_csv(out / "metrics_male.csv")
    n = {row[0]: int(row[header.index("n")]) for row in rows}
    assert n["Unknown"] == 1
    assert n["Overall"] == 14


def test_under_continent_scope_a_country_the_map_lacks_is_a_group_of_its_own(tmp_path, caplog):
    fixtures, truth = generate_world(tmp_path / "world", 5, 60)
    out = tmp_path / "out"
    flags = ["--out", out, "--seed", 5, "--fixture-dir", fixtures, "--truth", truth]
    for command in ("collect", "estimate"):
        assert run_cli(command, *flags) == 0
    truth_keys = {tuple(row[:2]) for row in read_csv(truth)[2]}
    estimates = read_csv(out / "estimates.csv")[2]
    iso2 = min(row[0] for row in estimates if row[3] == "true" and tuple(row[:2]) in truth_keys)
    continents = _continent_map_without(iso2, tmp_path / "continents.csv")
    with caplog.at_level("WARNING"):
        assert run_cli("validate", *flags, "--loocv-scope", "continent", "--continent-map", continents) == 0
    said = [r.getMessage() for r in caplog.records]
    assert "loocv scope=continent: skipping Unknown with only 1 pair(s)" in said


def test_map_shows_the_truth_row_the_join_kept(tmp_path, caplog):
    # an older AR/male row ahead of the bundled 2006-2015 one: the join keeps the
    # later period, and the map's ground-truth feature must show that row too
    lines = packaged_data_path("ground_truth.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    truth = tmp_path / "truth.csv"
    truth.write_text(lines[0] + "AR,male,40.00,1990-1995\n" + "".join(lines[1:]), encoding="utf-8")
    assert "AR,male,33.01,2006-2015\n" in lines
    out = tmp_path / "out"
    with caplog.at_level("WARNING"):
        assert run_cli("all", "--out", out, "--seed", 42, "--truth", truth) == 0
    assert "keeping period '2006-2015'" in caplog.text
    features = {f["id"]: f["properties"] for f in json.loads((out / "map.geojson").read_text())["features"]}
    assert features["AR"]["source"] == "ground_truth"
    assert features["AR"]["mac_predicted"] == 33.01


def test_all_logs_each_truth_row_warning_once(tmp_path, caplog):
    # validate, calibrate and predict share one read and one join of the truth table
    truth = tmp_path / "truth.csv"
    bundled = packaged_data_path("ground_truth.csv").read_text(encoding="utf-8")
    truth.write_text(bundled + "ß,male,33.0,2006-2015\nIT,male,34.0,1990-1995\n", encoding="utf-8")
    assert len(bundled.splitlines()) == 36
    with caplog.at_level("WARNING"):
        assert run_cli("all", "--out", tmp_path / "out", "--seed", 42, "--truth", truth) == 0
    messages = [record.getMessage() for record in caplog.records]
    assert messages.count(f"{truth}:37: iso2 must be two ASCII capital letters, got 'ß'; skipped") == 1
    assert messages.count("join ambiguity: duplicate truth rows for (IT, male); keeping period '2006-2015'") == 1


@pytest.mark.parametrize("command", ["all", "validate", "calibrate", "predict"])
def test_missing_truth_fails_the_stage_after_estimate(tmp_path, capsys, command):
    out = tmp_path / "out"
    absent = tmp_path / "absent.csv"
    if command != "all":
        for stage in ("collect", "estimate"):
            assert run_cli(stage, "--out", out, "--seed", 42) == 0
    capsys.readouterr()
    assert run_cli(command, "--out", out, "--seed", 42, "--truth", absent) == 1
    assert _one_line_report(capsys) == {
        "error": "MissingStageInput",
        "message": f"ground truth file {absent} not found",
        "command": command,
    }
    assert sorted(p.name for p in out.iterdir()) == ["estimates.csv", "snapshots"]


def test_rerun_with_no_map_sex_prediction_removes_the_earlier_map(tmp_path, caplog):
    # a truth row for every male the first run predicted: the rerun predicts no male, so it
    # emits no map, and the first run's map, which still shows those predictions, must go
    first, fresh = tmp_path / "first", tmp_path / "fresh"
    assert run_cli("all", "--seed", 42, "--out", first) == 0
    _, _, predictions = read_csv(first / "predictions.csv")
    males = [iso2 for iso2, sex, *_ in predictions if sex == "male"]
    assert males and (first / "map.geojson").exists()
    truth = tmp_path / "truth.csv"
    bundled = packaged_data_path("ground_truth.csv").read_text(encoding="utf-8")
    truth.write_text(bundled + "".join(f"{iso2},male,35.00,2006-2015\n" for iso2 in males), encoding="utf-8")
    with caplog.at_level("WARNING", logger="admac.pipeline"):
        for out in (first, fresh):
            assert run_cli("all", "--seed", 42, "--truth", truth, "--out", out) == 0
    assert not (first / "map.geojson").exists()
    assert outputs_of(first) == outputs_of(fresh)
    assert f"no male predictions; map not emitted (any earlier {first / 'map.geojson'} is removed)" in caplog.text


@pytest.mark.parametrize("policy", ["any", "parents-only"])
def test_zero_exposure_is_an_ineligible_estimate(tmp_path, policy):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(packaged_data_path("fixtures"), fixtures)
    ar = fixtures / "AR.csv"
    text = ar.read_text(encoding="utf-8")
    for parent_filter, count in (("all", 1600492), ("parent_of_child_0_12m", 103545)):
        text = text.replace(f"AR,female,30,34,{parent_filter},{count},", f"AR,female,30,34,{parent_filter},0,")
    ar.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("all", "--fixture-dir", fixtures, "--lower-bound-policy", policy, "--out", out) == 0
    rows = read_csv(out / "estimates.csv")[2]
    assert ["AR", "female", "", "false", "zero_exposure"] in rows


@pytest.mark.parametrize("command,stage", [("all", "validate"), ("calibrate", "calibrate")])
def test_stage_writes_nothing_when_a_sex_fails(tmp_path, capsys, command, stage):
    # two male truth rows are too few pairs for male, and male is fitted after
    # female: metrics_female.csv and model_female.json must stay as the first run wrote them
    out = tmp_path / "out"
    assert run_cli("all", "--out", out, "--seed", 42) == 0
    before = outputs_of(out)
    lines = packaged_data_path("ground_truth.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    male = [line for line in lines if ",male," in line]
    truth = tmp_path / "t2.csv"
    truth.write_text("".join(line for line in lines if line not in male[2:]), encoding="utf-8")
    capsys.readouterr()
    assert run_cli(command, "--out", out, "--seed", 42, "--truth", truth) == 1
    report_line = _one_line_report(capsys)
    assert report_line["error"] == "TooFewPoints" and f"{stage}/male" in report_line["message"]
    assert outputs_of(out) == before


def test_excluded_country_fails_before_any_snapshot(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("collect", "--out", out, "--countries", "AR,IT,SY") == 1
    report = _one_line_report(capsys)
    assert report["error"] == "ExcludedCountry"
    assert "SY" in report["message"]
    assert not (out / "snapshots").exists()


def test_missing_fixture_fails_before_any_snapshot(tmp_path, capsys):
    # every requested country is looked up before the first snapshot is written
    out = tmp_path / "out"
    assert run_cli("collect", "--out", out, "--countries", "IT,ZZ") == 1
    report = _one_line_report(capsys)
    assert report["error"] == "FixtureMiss"
    assert "ZZ" in report["message"]
    assert not (out / "snapshots").exists()


# case -> (option key, bad value, what the report must also say)
BAD_OPTION_VALUES = {
    "seed_not_an_integer": ("seed", "abc", ["'abc'", "integer"]),
    "unknown_mode": ("mode", "bogus", ["'bogus'", "fixture", "live"]),
    "unknown_lower_bound_policy": ("lower_bound_policy", "x", ["'x'", "any", "parents-only"]),
    "unknown_loocv_scope": ("loocv_scope", "x", ["'x'", "global", "continent"]),
    "unknown_sex": ("sexes", "other", ["'other'", "female", "male"]),
    "no_sexes": ("sexes", ",", ["at least one must be requested"]),
    "country_not_two_letters": ("countries", "IT,I1", ["'I1'"]),
    "country_not_ascii": ("countries", "ß,IT", ["'ß'"]),  # "ß" upper-cases to "SS"
    "no_countries": ("countries", ",", ["empty"]),
    "empty_out": ("out", "", ["empty"]),
    "live_without_countries": ("mode", "live", ["live", "countries"]),
}


@pytest.mark.parametrize("case", BAD_OPTION_VALUES)
@pytest.mark.parametrize("source", ["flag", "config_file"])
def test_bad_option_value_reports_config_error(tmp_path, capsys, monkeypatch, source, case):
    # one rule for both sources: exit 1, one ConfigError line naming the key, nothing written
    key, value, said = BAD_OPTION_VALUES[case]
    options = {"out": "out", key: value}
    monkeypatch.chdir(tmp_path)
    if source == "flag":
        args = [arg for k, v in options.items() for arg in ("--" + k.replace("_", "-"), v)]
    else:
        Path("run.conf").write_text("".join(f"{k} = {v}\n" for k, v in options.items()), encoding="utf-8")
        args = ["--config", "run.conf"]
    assert run_cli("collect", *args) == 1
    report = _one_line_report(capsys)
    assert report["error"] == "ConfigError"
    assert report["message"].startswith(f"{key}: ")
    assert all(part in report["message"] for part in said), report["message"]
    assert os.listdir(tmp_path) == (["run.conf"] if source == "config_file" else [])


def test_config_file_key_given_twice_reports_config_error(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("seed = 1\n# a comment\nseed = 2\n", encoding="utf-8")
    assert run_cli("all", "--config", config, "--out", tmp_path / "out") == 1
    report = _one_line_report(capsys)
    assert report["error"] == "ConfigError"
    assert report["message"].startswith(f"{config}:3: seed ")
    assert not (tmp_path / "out").exists()


def test_command_line_syntax_errors_stay_with_argparse():
    # a flag without a value, an unknown flag, no command, an unknown command: usage error, exit 2
    for argv in (["all", "--seed"], ["all", "--volume", "11"], [], ["bogus"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_options_before_the_command_write_what_options_after_it_write(tmp_path):
    before, after = tmp_path / "before", tmp_path / "after"
    assert run_cli("--seed", 42, "--out", before, "all") == 0
    assert run_cli("all", "--seed", 42, "--out", after) == 0
    assert outputs_of(before) == outputs_of(after)


def test_help_exits_0_and_names_every_command(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps at the terminal's width
    assert "{collect,estimate,validate,calibrate,predict,all}" in text
    for command in ("collect", "estimate", "validate", "calibrate", "predict", "all"):
        assert f"{command} (" in text  # the command's one-line help


def test_run_config_keeps_countries_upper_cased_once_each_and_sorted(tmp_path):
    from admac.pipeline import RunConfig

    assert RunConfig(output_dir=tmp_path, countries=("it", "FR", "IT")).countries == ("FR", "IT")


def test_run_config_and_collector_config_read_live_mode_given_as_text(tmp_path, monkeypatch):
    # given as text, live mode once kept no cache_dir, and both configs ended in a TypeError
    monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
    cfg = RunConfig(tmp_path / "out", mode="live", countries=("IT",))
    assert cfg.mode is Mode.LIVE and cfg.cache_dir == tmp_path / "out" / "cache"
    with pytest.raises(AuthError):  # the collect stage builds its live client
        run_all(cfg)
    config = CollectorConfig(mode="live", cache_dir=tmp_path / "cache")
    assert config.mode is Mode.LIVE

    class Client:
        def reach_estimate(self, iso2, key):
            return 1000

    (snapshot,) = Collector(config, client=Client()).collect_snapshots(["IT"])
    assert len(snapshot.cells) == 28


# case -> (RunConfig arguments, the same run given as members, each once)
RUN_CONFIG_AS_MEMBERS = {
    "policy_as_text": (
        {"lower_bound_policy": "parents-only"}, {"lower_bound_policy": LowerBoundPolicy.PARENTS_ONLY}
    ),
    "sex_as_text": ({"sexes": ("male",)}, {"sexes": (Sex.MALE,)}),
    "sex_twice": ({"sexes": (Sex.MALE, Sex.MALE)}, {"sexes": (Sex.MALE,)}),
}


@pytest.mark.parametrize("case", RUN_CONFIG_AS_MEMBERS)
def test_run_config_given_text_or_a_sex_twice_runs_as_given_members_once(tmp_path, case):
    # each once ended in an AttributeError, or, for a sex twice, in a ParseError on
    # estimates.csv, whose male rows estimate had written twice
    written = {}
    for name, kwargs in zip(("given", "members"), RUN_CONFIG_AS_MEMBERS[case]):
        run_all(RunConfig(tmp_path / name, seed=42, **kwargs))
        written[name] = outputs_of(tmp_path / name)
    assert written["given"] == written["members"]


def test_run_config_keeps_sexes_in_any_case_once_each_in_the_given_order(tmp_path):
    assert RunConfig(tmp_path, sexes=("male", "Female", "MALE")).sexes == (Sex.MALE, Sex.FEMALE)


def test_bundled_demo_data_is_what_its_script_generates(tmp_path, monkeypatch):
    script = Path(__file__).resolve().parent.parent / "scripts" / "gen_demo_fixtures.py"
    spec = importlib.util.spec_from_file_location("gen_demo_fixtures", script)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "DATA_DIR", tmp_path)
    generator.main()
    names = sorted(p.name for p in (tmp_path / "fixtures").glob("*.csv"))
    assert names == sorted(p.name for p in packaged_data_path("fixtures").glob("*.csv"))
    for name in names:
        bundled = packaged_data_path("fixtures", name).read_bytes()
        assert (tmp_path / "fixtures" / name).read_bytes() == bundled, name
    assert (tmp_path / "ground_truth.csv").read_bytes() == packaged_data_path("ground_truth.csv").read_bytes()


@pytest.mark.parametrize("misnamed", ["fixture", "snapshot"])
def test_cell_file_not_named_for_a_country_reports_parse_error(tmp_path, capsys, misnamed):
    # "it.csv" beside "IT.csv": a name must be the upper-case code itself
    for name in ("I1", "it"):
        fixtures = tmp_path / name / "fixtures"
        fixtures.mkdir(parents=True)
        shutil.copy(packaged_data_path("fixtures", "IT.csv"), fixtures)
        out = tmp_path / name / "out"
        if misnamed == "fixture":
            bad, command = fixtures / f"{name}.csv", "collect"
        else:
            assert run_cli("collect", "--fixture-dir", fixtures, "--out", out) == 0
            bad, command = out / "snapshots" / f"{name}.csv", "estimate"
        shutil.copy(fixtures / "IT.csv", bad)
        capsys.readouterr()
        assert run_cli(command, "--fixture-dir", fixtures, "--out", out) == 1
        report = _one_line_report(capsys)
        assert report["error"] == "ParseError"
        assert report["command"] == command
        assert str(bad) in report["message"]


def test_fixture_row_naming_another_country_reports_parse_error(tmp_path, capsys):
    lines = packaged_data_path("fixtures", "IT.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    first = min(i for i, line in enumerate(lines) if line.startswith("IT,"))
    row = max(i for i, line in enumerate(lines) if line.startswith("IT,"))
    key, timestamp = lines[first].split(",")[:5], lines[first].split(",")[6]
    cases = {
        "FR": "FR," + lines[row][3:],
        # a second row for the first row's cell, with another count
        ",".join(key[1:]): ",".join(key + ["999", timestamp]),
    }
    for case, (named, bad_line) in enumerate(cases.items()):
        fixtures = tmp_path / str(case) / "fixtures"
        fixtures.mkdir(parents=True)
        bad = fixtures / "IT.csv"
        bad.write_text("".join(lines[:row] + [bad_line] + lines[row + 1:]), encoding="utf-8")
        out = tmp_path / str(case) / "out"
        assert run_cli("collect", "--fixture-dir", fixtures, "--out", out) == 1
        report = _one_line_report(capsys)
        assert report["error"] == "ParseError"
        assert str(bad) in report["message"] and named in report["message"]
        assert f"(line {row + 1})" in report["message"]
        assert not (out / "snapshots").exists()


def _fresh_env() -> dict[str, str]:
    """This environment with this admac's source directory first on PYTHONPATH."""
    src = str(Path(admac.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_interpreter(code: str):
    """The JSON on the last line `code` prints in a fresh interpreter that imports this admac."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_fresh_env(), timeout=60, check=True
    )
    return json.loads(result.stdout.splitlines()[-1])


def _loaded_by_fresh_cli_import(*modules: str) -> list[str]:
    """Which of `modules` a fresh interpreter has loaded after `import admac.cli`."""
    return _fresh_interpreter(
        f"import admac.cli, json, sys; print(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    )


def test_importing_the_cli_does_not_load_requests():
    # nor the stdlib HTTP stack: only a live run without an injected session imports it
    assert _loaded_by_fresh_cli_import("requests", "urllib.request", "http.client") == []


def test_importing_the_cli_loads_no_dataclasses_and_no_thread_pool():
    assert _loaded_by_fresh_cli_import("dataclasses", "inspect", "concurrent.futures") == []


def test_a_fixture_run_loads_neither_openssl_nor_statistics(tmp_path):
    # SHA-256 comes from the interpreter's own module and the SD from stats; what the
    # host's `site` hooks load before admac starts does not count
    out = tmp_path / "out"
    added = _fresh_interpreter(
        "import sys; before = set(sys.modules)\n"
        "import json, admac.cli\n"
        f"assert admac.cli.main(['all', '--seed', '42', '--out', {str(out)!r}]) == 0\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert "admac.pipeline" in added
    assert {"_hashlib", "statistics", "fractions", "decimal"}.isdisjoint(added)


@pytest.mark.parametrize("damaged", ["fixture", "snapshot"])
def test_non_utf8_cell_file_reports_parse_error(tmp_path, capsys, damaged):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    for iso2 in ("FR", "IT"):
        shutil.copy(packaged_data_path("fixtures", f"{iso2}.csv"), fixtures)
    out = tmp_path / "out"
    if damaged == "fixture":
        bad, command = fixtures / "IT.csv", "collect"
    else:
        assert run_cli("collect", "--fixture-dir", fixtures, "--out", out) == 0
        bad, command = out / "snapshots" / "IT.csv", "estimate"
    with open(bad, "ab") as handle:
        handle.write(b"\xff")
    capsys.readouterr()
    assert run_cli(command, "--fixture-dir", fixtures, "--out", out) == 1
    report = _one_line_report(capsys)
    assert report["error"] == "ParseError"
    assert report["command"] == command
    assert str(bad) in report["message"] and "UTF-8" in report["message"]


def _patch_everywhere(monkeypatch, original, replacement) -> None:
    """Rebind every admac module-level name that refers to `original`."""
    for name, module in list(sys.modules.items()):
        if name == "admac" or name.startswith("admac."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_fixture_collect_hashes_the_bytes_it_read(tmp_path, monkeypatch):
    from admac import pipeline

    hashed = []
    _patch_everywhere(monkeypatch, sha256_file, hashed.append)
    cfg = pipeline.RunConfig(output_dir=tmp_path / "out", countries=("FR", "IT"))
    pipeline.stage_collect(cfg)
    assert hashed == []
    for iso2 in ("FR", "IT"):
        digest = sha256_file(cfg.fixture_dir / f"{iso2}.csv")
        assert f"# input_fixture_{iso2}={digest}\n" in (cfg.snapshots_dir / f"{iso2}.csv").read_text()


def test_stages_hash_the_bytes_they_parsed(tmp_path, monkeypatch):
    from admac import pipeline

    cfg = pipeline.RunConfig(output_dir=tmp_path / "out", seed=42)
    pipeline.stage_collect(cfg)

    def second_read(path):
        raise AssertionError(f"{path} read a second time to hash it")

    _patch_everywhere(monkeypatch, sha256_file, second_read)
    written = pipeline.stage_estimate(cfg)
    written += pipeline.stage_validate(cfg) + pipeline.stage_calibrate(cfg) + pipeline.stage_predict(cfg)
    assert len(written) == 7  # estimates, two metrics, two models, predictions and the map
    snapshots = hashlib.sha256()
    for path in sorted(cfg.snapshots_dir.glob("*.csv")):
        snapshots.update(path.name.encode() + hashlib.sha256(path.read_bytes()).digest())
    sources = {
        "estimates": cfg.estimates_path,
        "truth": cfg.truth_path,
        "continents": cfg.continent_map_path,
        "model_female": cfg.model_path(admac.domain.Sex.FEMALE),
        "model_male": cfg.model_path(admac.domain.Sex.MALE),
    }
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in sources.items()}
    digests["snapshots"] = snapshots.hexdigest()
    for path in written:
        if path.suffix == ".csv":
            meta = read_csv(path)[0]
        else:
            meta = json.loads(path.read_text(encoding="utf-8"))["metadata"]
        stamped = {key[len("input_"):]: value for key, value in meta.items() if key.startswith("input_")}
        assert stamped and all(digests[name] == digest for name, digest in stamped.items()), path


def test_non_utf8_config_file_reports_config_error(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_bytes(b"seed=1\n\xff\n")
    assert run_cli("all", "--config", config, "--out", tmp_path / "out") == 1
    report = _one_line_report(capsys)
    assert report["error"] == "ConfigError"
    assert str(config) in report["message"] and "(line 2)" in report["message"]
    assert not (tmp_path / "out").exists()


# SHA-256 of the demo artifacts of `admac all --seed 42` that involve no libm
# special function; the models, predictions and map carry p-values and
# t quantiles, whose last bits may differ between C libraries.
DEMO_SEED_42_DIGESTS = {
    "snapshots/AR.csv": "83bca4226239930db844307afc9c48f229ee917f9a1b9f75e425ffe25fdf3426",
    "snapshots/AU.csv": "558f711e2e37847409eae95f4b083eed90391e1d1009e0404b7b156fd9dbb6a9",
    "snapshots/BR.csv": "fbecb7fbaafe6011d2a45d8ee5689f6dec665a5dc40946128feb2105939faeec",
    "snapshots/CA.csv": "44fea86d91bf011a3a8213a0c876b1a7b91dbe1b5017540bf45a50add4582fbe",
    "snapshots/CL.csv": "91fd9c8e0819fbf98114cbb85d2ddb5c12d2c2c4bdc6b0ccf76baa603582f254",
    "snapshots/CO.csv": "f9d06bf8ff5c1b5bd3bd3ff8026285b87e3a5ff6dcb3bf83158ab524fd016192",
    "snapshots/DE.csv": "ca84a336e1f4d5e2da71eafc42468a4b5fc5ad6d311b0e078e187584667cedf0",
    "snapshots/EG.csv": "eeb4d6cef83f1eae8d8a4c198d7673590f36be5a0e7772bbfaadc6696aa539c3",
    "snapshots/ES.csv": "c46c3cb6828cc695764fa3762bee181545b4b3509a4b74bc62dc8ace11b02fad",
    "snapshots/FR.csv": "d8d8f01977d1f1adcb1711fab4aa09d5309b85ed2a56243b72b456ecdc6d9443",
    "snapshots/IN.csv": "141ada3d529c929c5aa8c12b94bf7769fa14b812f80750f8767c8260bd099037",
    "snapshots/IT.csv": "b8ae962a1317463bf499da85b2757b12057ffdbcd4a0006390db8c0c490ddf58",
    "snapshots/JP.csv": "1feff58132fca00ba60c76863c8f489bc6d42addd60d3f326b9f4c8acc8e5826",
    "snapshots/KE.csv": "da3d75bdf4ab594c0762b3cb9e24e11f88298dad0e2e3abe5eb3d897526acfa7",
    "snapshots/MX.csv": "11eac9fb5638a87531376c921fd994793aa9decabebe73344f6809b5871985af",
    "snapshots/NG.csv": "f6f030576bdc86019b4115092c09c2e4694d2033948a0beeabb0d6ecf211ab81",
    "snapshots/NZ.csv": "7985f331e04e2a32884396e6c5dc79834cb10ede128d64941f0844f8d4bd2dbb",
    "snapshots/PL.csv": "e0d7bc861e999da92021aac2937cc420dd68e654cb88f4a0ea7341a04518ef60",
    "snapshots/TR.csv": "0969b2113b2e3184d543c01feabe284d26dcc99a145625b75bcd6634f1247eda",
    "snapshots/US.csv": "1662c17a08cc0202ecb410f2217b8c76cdea024e641f16ced7a34c0ef4812a7d",
    "snapshots/ZA.csv": "656a33599de64efc70cd2b7c83b90f021cd26c7eb14875f02b5e2529b5617d95",
    "estimates.csv": "7e02bd575236c9136e09fb239521c2bb496083adb448dec6a7a1741c0d47bfcc",
    "metrics_female.csv": "a9b5e7a1de67495f9581edf8891ad7efdd366b06a1c1d59656ecb72e896691cb",
    "metrics_male.csv": "9d8109b9af7ffc65ebe2c16bb974db5b38d24b04cd0e511d33c84a3b14296ed9",
}


def _pinned_digests(out: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in outputs_of(out).items()
        if name.startswith(("snapshots/", "estimates", "metrics_"))
    }


def test_demo_output_is_pinned(tmp_path):
    out = tmp_path / "out"
    assert run_cli("all", "--seed", 42, "--out", out) == 0
    assert _pinned_digests(out) == DEMO_SEED_42_DIGESTS


def test_main_in_process_freezes_nothing(tmp_path):
    # only the process entry `run` freezes the import-time heap; an in-process caller's
    # objects stay collectable, and -X dev still sees a file left open in a cycle
    frozen = gc.get_freeze_count()
    assert run_cli("all", "--seed", 42, "--out", tmp_path / "out") == 0
    assert gc.get_freeze_count() == frozen


def test_module_entry_runs_the_demo_in_development_mode(tmp_path):
    # `python -m admac.cli` goes through `run`; every ResourceWarning is an error there
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "admac.cli", "all", "--seed", "42",
         "--out", str(out)],
        capture_output=True, text=True, env=_fresh_env(), timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert _pinned_digests(out) == DEMO_SEED_42_DIGESTS
