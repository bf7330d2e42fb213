from __future__ import annotations

import json
import os
import stat

import pytest

from admac.fileio import atomic_write_text, read_csv, sha256_file, standard_metadata, write_csv, write_json


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
