from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import admac
from admac.cli import main
from admac.fileio import read_csv, sha256_file
from admac.pipeline import packaged_data_path


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
    # `all` hands its snapshots to estimate in memory; one left by an earlier
    # run is still read, hashed and estimated, as the estimate command does
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
    assert [row[0] for row in rows].count("ZZ") == 2


def test_estimate_from_memory_equals_estimate_from_files(tmp_path):
    from admac.pipeline import RunConfig, stage_collect, stage_estimate
    from conftest import full_fixture_rows, write_fixture

    fixtures = tmp_path / "fixtures"
    write_fixture(fixtures, "IT", full_fixture_rows())
    write_fixture(fixtures, "FR", full_fixture_rows()[:-1])  # one cell missing
    write_fixture(fixtures, "NG", [])  # no cells at all
    cfg = RunConfig(output_dir=tmp_path / "out", fixture_dir=fixtures, seed=3)
    collected = {}
    stage_collect(cfg, collected=collected)
    assert sorted(p.name for p in collected) == ["FR.csv", "IT.csv", "NG.csv"]
    for path, (digest, _) in collected.items():
        assert digest == sha256_file(path)
    in_memory = stage_estimate(cfg, collected).read_bytes()
    from_files = stage_estimate(cfg).read_bytes()
    assert in_memory == from_files
    assert in_memory.count(b",false,incomplete_snapshot") == 3


def test_stage_requires_prior_stage(tmp_path, capsys):
    assert run_cli("validate", "--out", tmp_path / "empty") == 1
    report = read_err(capsys)
    assert report["error"] == "MissingStageInput"
    assert report["command"] == "validate"
    assert "estimate" in report["message"]


def test_estimate_requires_collect(tmp_path, capsys):
    assert run_cli("estimate", "--out", tmp_path / "empty") == 1
    assert read_err(capsys)["error"] == "MissingStageInput"


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


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("volume = 11\n", encoding="utf-8")
    assert run_cli("all", "--config", config, "--out", tmp_path / "out") == 1
    assert read_err(capsys)["error"] == "ConfigError"


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


@pytest.mark.parametrize(
    "edit",
    [
        lambda line: line.replace(line.split(",")[2], "abc"),
        lambda line: line.replace(",true,\n", ",true,,extra\n"),
        lambda line: line.replace(",true,\n", ",yes,\n"),
    ],
    ids=["mac_not_a_number", "sixth_field", "eligible_not_boolean"],
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


def _truncate(text: str) -> str:
    return text[: len(text) // 2]


def _drop_slope(text: str) -> str:
    document = json.loads(text)
    del document["model"]["slope"]
    return json.dumps(document)


@pytest.mark.parametrize("edit", [_truncate, _drop_slope], ids=["truncated", "missing_key"])
def test_malformed_model_reports_parse_error(tmp_path, capsys, edit):
    out = tmp_path / "out"
    assert run_cli("all", "--out", out) == 0
    model = out / "model_male.json"
    model.write_text(edit(model.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("predict", "--out", out) == 1
    report = _one_line_report(capsys)
    assert report["error"] == "ParseError"
    assert report["command"] == "predict"


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
    ],
    ids=["string_slope", "bool_intercept", "float_df", "null_n", "string_residual", "scalar_residuals"],
)
def test_wrongly_typed_model_reports_parse_error(tmp_path, capsys, demo_out, key, value):
    out = tmp_path / "out"
    shutil.copytree(demo_out, out)
    model = out / "model_male.json"
    document = json.loads(model.read_text(encoding="utf-8"))
    document["model"][key] = value
    model.write_text(json.dumps(document), encoding="utf-8")
    capsys.readouterr()
    assert run_cli("predict", "--out", out) == 1
    report = _one_line_report(capsys)
    assert report["error"] == "ParseError"
    assert key in report["message"]


def test_excluded_country_fails_before_any_snapshot(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("collect", "--out", out, "--countries", "AR,IT,SY") == 1
    report = _one_line_report(capsys)
    assert report["error"] == "ExcludedCountry"
    assert "SY" in report["message"]
    assert not (out / "snapshots").exists()


def _loaded_by_fresh_cli_import(*modules: str) -> list[str]:
    """Which of `modules` a fresh interpreter has loaded after `import admac.cli`."""
    src = str(Path(admac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import admac.cli, json, sys; print(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    return json.loads(result.stdout)


def test_importing_the_cli_does_not_load_requests():
    assert _loaded_by_fresh_cli_import("requests") == []


def test_importing_the_cli_loads_no_dataclasses_and_no_thread_pool():
    assert _loaded_by_fresh_cli_import("dataclasses", "inspect", "concurrent.futures") == []


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


def test_fixture_collect_hashes_the_bytes_it_read(tmp_path, monkeypatch):
    from admac import pipeline

    hashed = []
    monkeypatch.setattr(pipeline, "sha256_file", hashed.append)
    cfg = pipeline.RunConfig(output_dir=tmp_path / "out", countries=("FR", "IT"))
    pipeline.stage_collect(cfg)
    assert hashed == []
    for iso2 in ("FR", "IT"):
        digest = sha256_file(cfg.fixture_dir / f"{iso2}.csv")
        assert f"# input_fixture_{iso2}={digest}\n" in (cfg.snapshots_dir / f"{iso2}.csv").read_text()
