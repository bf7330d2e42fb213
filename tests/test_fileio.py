from __future__ import annotations

import codecs
import csv
import json
import os
import stat

import pytest

from admac.errors import ParseError
from admac.fileio import append_lines, atomic_write_text, sha256_file, standard_metadata, write_csv, write_json
from admac.groundtruth import load_continent_map, load_ground_truth
from admac.ingest import read_cells_csv
from admac.pipeline import load_estimates
from conftest import fail_writes_part_way, read_csv


def test_csv_metadata_roundtrip(tmp_path):
    path = tmp_path / "nested" / "out.csv"
    meta = standard_metadata(seed=5, inputs={"truth": "abc123"})
    write_csv(path, meta, ["a", "b"], [["1", "x,y"], ["2", ""]])
    got_meta, header, rows = read_csv(path)
    assert got_meta == meta
    assert header == ["a", "b"]
    assert rows == [["1", "x,y"], ["2", ""]]
    text = path.read_text()
    assert text.startswith("# tool=admac ")
    assert "# seed=5\n" in text and "# input_truth=abc123\n" in text


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "file.txt"
    atomic_write_text(path, "one")
    atomic_write_text(path, "two")
    assert path.read_text() == "two"
    assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    path = tmp_path / "file.txt"
    atomic_write_text(path, "one")

    def refuse(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError):
        atomic_write_text(path, "two")
    assert path.read_bytes() == b"one"
    assert list(tmp_path.glob(".*.tmp")) == []


def test_append_lines_writes_the_header_once_and_never_after_a_fragment(tmp_path, monkeypatch):
    path = tmp_path / "a" / "day.csv"
    append_lines(path, "1\n", "h\n")
    append_lines(path, "2\n3\n", "h\n")
    assert path.read_text() == "h\n1\n2\n3\n"
    # an append, or the create, that fails part way is cut back to where it began
    for existing in ("h\n1\n", None):
        if existing is None:
            path.unlink()
        else:
            path.write_text(existing)
        fail_writes_part_way(monkeypatch)
        with pytest.raises(OSError):
            append_lines(path, "4\n5\n", "h\n")
        monkeypatch.undo()
        assert path.read_text() == (existing or "")
        append_lines(path, "6\n", "h\n")  # an emptied file gets its header again
        assert path.read_text() == (existing or "h\n") + "6\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_append_lines_closes_its_descriptor_on_every_path(tmp_path, monkeypatch):
    path = tmp_path / "day.csv"
    before = len(os.listdir("/proc/self/fd"))
    append_lines(path, "1\n", "h\n")  # creates
    append_lines(path, "2\n", "h\n")  # appends
    fail_writes_part_way(monkeypatch)
    with pytest.raises(OSError):
        append_lines(path, "3\n4\n", "h\n")  # fails part way
    monkeypatch.undo()
    assert path.read_text() == "h\n1\n2\n"
    assert len(os.listdir("/proc/self/fd")) == before


def test_atomic_write_creates_missing_parents_and_writes_text_byte_exact(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    text = "first\r\nGröße ≥ 5 — ✓\nlast"
    atomic_write_text(path, text)
    assert path.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_atomic_write_gives_the_mode_open_would(tmp_path, umask):
    previous = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "atomic.txt", "x")
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as handle:
            handle.write("x")
    finally:
        os.umask(previous)
    mode = stat.S_IMODE((tmp_path / "atomic.txt").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode) == 0o666 & ~umask


def test_write_json_embeds_metadata(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"seed": "1"}, {"payload": [1.5, None]})
    doc = json.loads(path.read_text())
    assert doc["metadata"] == {"seed": "1"}
    assert doc["payload"] == [1.5, None]


def test_sha256_matches_known_value(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"hello")
    assert sha256_file(path) == (
        "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
    )


def test_read_csv_on_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# tool=admac 0.1.0\n")
    meta, header, rows = read_csv(path)
    assert meta and header == [] and rows == []


# --- the CSV loaders share one reader ---------------------------------------------

def _read_cells_flat(path):
    """read_cells_csv's cells as one list, every country's in file order."""
    return [cell for cells in read_cells_csv(path).values() for cell in cells.values()]


# loader, its columns, and two valid data rows
CSV_LOADERS = {
    "cells": (
        _read_cells_flat,
        ["iso2", "sex", "age_low", "age_high", "parent_filter", "count", "collected_at"],
        ["IT,female,15,19,all,100,2024-06-01T00:00:00Z",
         "IT,female,15,19,parent_of_child_0_12m,5,2024-06-01T00:00:00Z"],
    ),
    "truth": (load_ground_truth, ["iso2", "sex", "mac", "period"], ["IT,male,35.1,2006-2015", "FR,male,33.9,2006-2015"]),
    "continents": (load_continent_map, ["iso2", "continent"], ["IT,Europe", "NG,Africa"]),
    "estimates": (
        load_estimates,
        ["iso2", "sex", "mac", "eligible", "reason"],
        ["IT,female,29.5,true,", "IT,male,,false,lower_bound_cell"],
    ),
}


def _write_loader_input(tmp_path, text: str | bytes):
    path = tmp_path / "input.csv"
    if isinstance(text, str):
        text = text.encode("utf-8")
    path.write_bytes(text)
    return path


# a third line that no loader can read: not UTF-8, or a field over the csv module's size limit
BAD_THIRD_LINES = {"non_utf8": b"\xff\n", "oversized_field": b"x" * (csv.field_size_limit() + 1) + b"\n"}


@pytest.mark.parametrize("kind", sorted(CSV_LOADERS))
@pytest.mark.parametrize(
    "case",
    ["non_utf8", "oversized_field", "empty", "wrong_header", "comments_and_blank_lines", "header_case_and_spaces"],
)
def test_csv_loader_contract(tmp_path, kind, case):
    load, columns, (first, second) = CSV_LOADERS[kind]
    plain = "\n".join([",".join(columns), first, second]) + "\n"
    if case in BAD_THIRD_LINES:
        path = _write_loader_input(tmp_path, f"{','.join(columns)}\n{first}\n".encode() + BAD_THIRD_LINES[case])
        with pytest.raises(ParseError) as caught:
            load(path)
        assert caught.value.line == 3
        assert str(path) in str(caught.value)
    elif case == "empty":
        with pytest.raises(ParseError):
            load(_write_loader_input(tmp_path, ""))
    elif case == "wrong_header":
        with pytest.raises(ParseError) as caught:
            load(_write_loader_input(tmp_path, plain.replace("iso2", "country", 1)))
        assert caught.value.line == 1
    else:
        expected = load(_write_loader_input(tmp_path, plain))
        assert len(expected) == 2
        if case == "comments_and_blank_lines":
            text = f"# tool=admac x\n\n# a note\n{','.join(columns)}\n\n{first}\n# seed=1\n  \n{second}\n\n"
        else:
            text = "\n".join([" , ".join(c.upper() for c in columns), first, second]) + "\n"
        assert load(_write_loader_input(tmp_path, text)) == expected


@pytest.mark.parametrize("kind", sorted(CSV_LOADERS))
def test_csv_loader_skips_a_leading_byte_order_mark_and_keeps_line_numbers(tmp_path, kind):
    load, columns, (first, second) = CSV_LOADERS[kind]
    plain = f"{','.join(columns)}\n{first}\n"
    expected = load(_write_loader_input(tmp_path, plain + second + "\n"))
    assert load(_write_loader_input(tmp_path, "\ufeff" + plain + second + "\n")) == expected
    path = _write_loader_input(tmp_path, codecs.BOM_UTF8 + plain.encode() + BAD_THIRD_LINES["non_utf8"])
    with pytest.raises(ParseError) as caught:
        load(path)
    assert caught.value.line == 3
