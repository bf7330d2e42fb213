from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admac.domain import Sex
from admac.errors import ParseError
from admac.groundtruth import (
    GroundTruthRecord,
    join_pairs,
    load_continent_map,
    load_ground_truth,
)


def _truth(iso2, sex=Sex.MALE, mac=33.0, period="2006-2015"):
    return GroundTruthRecord(country=iso2, sex=sex, mac=mac, period=period)


def _estimate(iso2, sex=Sex.MALE, mac=31.0):
    return (iso2, sex, mac)


# --- loading -------------------------------------------------------------

def test_load_ground_truth_roundtrip(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("iso2,sex,mac,period\nIT,male,35.1,2006-2015\n", encoding="utf-8")
    records = load_ground_truth(path)
    assert len(records) == 1
    rec = records[0]
    assert rec.country == "IT" and rec.sex is Sex.MALE
    assert rec.mac == 35.1 and rec.period == "2006-2015"


def test_load_ground_truth_skips_bad_rows_with_diagnostics(tmp_path, caplog):
    path = tmp_path / "truth.csv"
    path.write_text(
        "iso2,sex,mac,period\n"
        "IT,male,-1,2006-2015\n"
        "FR,male,abc,2006-2015\n"
        "DE,robot,33.0,2006-2015\n"
        "ES,male,33.0,2006-2015\n"
        "NL,male,33.0\n",
        encoding="utf-8",
    )
    with caplog.at_level("WARNING"):
        records = load_ground_truth(path)
    assert [r.country for r in records] == ["ES"]
    assert ":2:" in caplog.text and ":3:" in caplog.text and ":4:" in caplog.text
    assert f"{path}:6: expected 4 fields, got 3; skipped" in [r.getMessage() for r in caplog.records]


def test_truth_row_whose_iso2_is_not_ascii_is_skipped_with_its_line(tmp_path, caplog):
    path = tmp_path / "truth.csv"
    # fullwidth IT (U+FF29 U+FF34): letters and upper case, but not ASCII
    # and "ß", which upper-cases to the two ASCII letters "SS"
    path.write_text(
        "iso2,sex,mac,period\nES,male,33.0,2006-2015\n\uff29\uff34,male,33.1,2010-2015\nß,male,33.0,2006-2015\n",
        encoding="utf-8",
    )
    with caplog.at_level("WARNING"):
        records = load_ground_truth(path)
    assert [r.country for r in records] == ["ES"]
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:3: iso2 must be two ASCII capital letters, got '\uff29\uff34'; skipped",
        f"{path}:4: iso2 must be two ASCII capital letters, got 'ß'; skipped",
    ]


def test_load_ground_truth_empty_file_with_header(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("iso2,sex,mac,period\n", encoding="utf-8")
    assert load_ground_truth(path) == []


def test_load_ground_truth_missing_file():
    with pytest.raises(FileNotFoundError):
        load_ground_truth("/nonexistent/truth.csv")


def test_load_ground_truth_bad_header(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("country,sex,mac\nIT,male,35.1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_ground_truth(path)


def test_load_continent_map(tmp_path, caplog):
    path = tmp_path / "continents.csv"
    path.write_text(
        "iso2,continent\nIT,Europe\nNG,Africa\nZZ,Atlantis\nGB,Europe,extra\n", encoding="utf-8"
    )
    with caplog.at_level("WARNING"):
        mapping = load_continent_map(path)
    assert mapping == {"IT": "Europe", "NG": "Africa"}
    assert "Atlantis" in caplog.text
    assert f"{path}:5: expected 2 fields, got 3; skipped" in [r.getMessage() for r in caplog.records]


def test_continent_row_whose_iso2_is_no_code_is_skipped_with_its_line(tmp_path, caplog):
    # a name, fullwidth IT and "ß" (upper-cased, "SS") are no codes; lower case is one
    path = tmp_path / "continents.csv"
    path.write_text(
        "iso2,continent\nITALY,Europe\n\uff29\uff34,Asia\nß,Africa\nit,Europe\nSS,Africa\n", encoding="utf-8"
    )
    with caplog.at_level("WARNING"):
        mapping = load_continent_map(path)
    assert mapping == {"IT": "Europe", "SS": "Africa"}
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:2: iso2 must be two ASCII capital letters, got 'ITALY'; skipped",
        f"{path}:3: iso2 must be two ASCII capital letters, got '\uff29\uff34'; skipped",
        f"{path}:4: iso2 must be two ASCII capital letters, got 'ß'; skipped",
    ]


def test_bundled_continent_map_loads():
    from admac.pipeline import packaged_data_path

    mapping = load_continent_map(packaged_data_path("continents.csv"))
    assert mapping["IT"] == "Europe"
    assert mapping["MX"] == "NorthAmerica"
    assert len(mapping) > 150


# --- joining -------------------------------------------------------------

def test_join_inner_and_unmatched():
    result = join_pairs([_estimate("IT")], [_truth("IT"), _truth("FR")])
    assert len(result.pairs) == 1
    assert result.pairs[0].country == "IT"
    assert result.pairs[0].mac_fb == 31.0 and result.pairs[0].mac_truth == 33.0
    assert result.unmatched_estimates == []
    assert [t.country for t in result.unmatched_truth] == ["FR"]


def test_join_disjoint_sets():
    result = join_pairs([_estimate("IT")], [_truth("FR")])
    assert result.pairs == []
    assert len(result.unmatched_estimates) == 1
    assert len(result.unmatched_truth) == 1


def test_join_is_keyed_by_sex_too():
    result = join_pairs([_estimate("IT", Sex.FEMALE)], [_truth("IT", Sex.MALE)])
    assert result.pairs == []


def test_join_duplicate_truth_latest_period_wins(caplog):
    old = _truth("IT", mac=34.0, period="1996-2005")
    new = _truth("IT", mac=35.0, period="2006-2015")
    with caplog.at_level("WARNING"):
        result = join_pairs([_estimate("IT")], [old, new])
    assert result.pairs[0].mac_truth == 35.0
    assert "ambiguity" in caplog.text
    # order independence
    assert join_pairs([_estimate("IT")], [new, old]).pairs[0].mac_truth == 35.0


def test_join_output_sorted_by_iso2():
    estimates = [_estimate(code) for code in ("ZA", "AR", "MX", "FR")]
    truth = [_truth(code) for code in ("MX", "ZA", "FR", "AR")]
    result = join_pairs(estimates, truth)
    assert [p.country for p in result.pairs] == ["AR", "FR", "MX", "ZA"]


iso_codes = st.sampled_from(["AA", "BB", "CC", "DD", "EE", "FF", "GG", "HH"])
sexes = st.sampled_from(list(Sex))
periods = st.sampled_from(["1996-2005", "2006-2015", "2010-2017"])


@given(
    st.lists(st.tuples(iso_codes, sexes), max_size=10),
    st.lists(st.tuples(iso_codes, sexes, periods), max_size=12),
    st.randoms(use_true_random=False),
)
@settings(max_examples=120)
def test_join_matches_bruteforce_oracle(est_keys, truth_keys, rnd):
    estimates = [
        (iso2, sex, 25.0 + i) for i, (iso2, sex) in enumerate(est_keys)
    ]
    truth = [
        _truth(iso2, sex, mac=30.0 + i, period=period)
        for i, (iso2, sex, period) in enumerate(truth_keys)
    ]
    if len(set(est_keys)) < len(est_keys):
        with pytest.raises(ValueError, match="a second estimate"):
            join_pairs(estimates, truth)
        return
    result = join_pairs(estimates, truth)

    # brute-force oracle: one estimate per key; group truth rows per key,
    # then apply the stated resolution rule (latest period) by sorting
    est_resolved = {(country, sex): mac_fb for country, sex, mac_fb in estimates}
    truth_groups: dict = {}
    for rec in truth:
        truth_groups.setdefault((rec.country, rec.sex), []).append(rec)
    truth_resolved = {
        key: max(recs, key=lambda r: (r.period, r.mac))
        for key, recs in truth_groups.items()
    }
    expected_pairs = {
        key: (est_resolved[key], truth_resolved[key].mac)
        for key in est_resolved
        if key in truth_resolved
    }
    got_pairs = {(p.country, p.sex): (p.mac_fb, p.mac_truth) for p in result.pairs}
    assert got_pairs == expected_pairs

    # count identities hold after duplicate resolution
    assert len(result.pairs) + len(result.unmatched_estimates) == len(est_resolved)
    assert len(result.pairs) + len(result.unmatched_truth) == len(truth_resolved)

    # permutation invariance, duplicate truth rows and all
    est_shuffled = list(estimates)
    truth_shuffled = list(truth)
    rnd.shuffle(est_shuffled)
    rnd.shuffle(truth_shuffled)
    again = join_pairs(est_shuffled, truth_shuffled)
    assert {(p.country, p.sex): (p.mac_fb, p.mac_truth) for p in again.pairs} == got_pairs
    assert [p.country for p in again.pairs] == [p.country for p in result.pairs]
