"""CSV/JSON output plumbing: atomic writes, metadata headers, digests.

Every artifact the pipeline writes starts with `# key=value` comment lines
(tool version, seed, input digests) followed by a regular CSV header or a
JSON document with a "metadata" member. `read_table` is the one reader of
every CSV input file, stage artifacts and the bundled data alike.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from pathlib import Path
from typing import Iterable, Sequence

from ._version import __version__
from .errors import ParseError


def _create(path: Path) -> int:
    """A write descriptor on a new file at `path`, creating missing parent
    directories. The file gets open()'s mode: 0o666 less the umask."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        return os.open(path, flags, 0o666)
    except FileNotFoundError:  # no parent directory yet
        path.parent.mkdir(parents=True, exist_ok=True)
        return os.open(path, flags, 0o666)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` as UTF-8 via a temp file + rename so failures never leave
    partial output. The file gets open()'s mode: 0o666 less the umask."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
    fd = _create(tmp)
    try:
        with open(fd, "wb") as handle:
            handle.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def append_lines(path: str | Path, lines: str, header: str) -> bool:
    """Append `lines`, whole lines each ending in a line break, to `path` as
    UTF-8 in one `os.write` on an O_APPEND descriptor. A missing file is
    created, with `header` written first. Returns False, having written
    nothing, when the file does not end in a line break: an append cut
    short leaves it so, and appending after the fragment would tear a line.
    """
    path = Path(path)
    try:
        fd, created = os.open(path, os.O_RDWR | os.O_APPEND), False
    except FileNotFoundError:
        fd, created = _create(path), True
    try:
        if created:
            lines = header + lines
        else:
            end = os.fstat(fd).st_size
            if not end or os.pread(fd, 1, end - 1) != b"\n":
                return False
        os.write(fd, lines.encode("utf-8"))
    finally:
        os.close(fd)
    return True


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def standard_metadata(seed: int | None = None, inputs: dict[str, str] | None = None) -> dict[str, str]:
    """The metadata block every output carries (no timestamps: outputs must
    be byte-identical across reruns)."""
    meta = {"tool": f"admac {__version__}"}
    if seed is not None:
        meta["seed"] = str(seed)
    for name, digest in (inputs or {}).items():
        meta[f"input_{name}"] = digest
    return meta


def _comment_lines(meta: dict[str, str]) -> list[str]:
    return [f"# {key}={value}" for key, value in meta.items()]


def write_csv(
    path: str | Path,
    meta: dict[str, str],
    header: Sequence[str],
    rows: Iterable[Sequence],
) -> None:
    buf = io.StringIO()
    for line in _comment_lines(meta):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def decode_utf8(path: str | Path, data: bytes) -> str:
    """`data` as text; bytes that are not UTF-8 raise ParseError naming `path` and the line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path} is not valid UTF-8: {exc}", line=line) from exc


def read_table(
    path: str | Path, columns: list[str] | None = None, *, data: bytes | None = None
) -> tuple[dict[str, str], list[str], list[tuple[int, list[str]]], bool]:
    """The one reader of CSV input files: (metadata, header, rows, torn_tail).

    `data` is the file's bytes when the caller has already read them.
    `# key=value` lines fill the metadata; other `#` lines and blank lines
    are skipped. Each data row comes with its 1-based line number in the
    file. With `columns`, the header must equal them once stripped and
    lower-cased. `torn_tail` is true when the last data row ends the file
    without a line break, as a write cut short leaves it. Bytes that are
    not UTF-8, a row the csv module rejects, and (with `columns`) an empty
    file or a wrong header raise ParseError.
    """
    if data is None:
        data = Path(path).read_bytes()
    meta: dict[str, str] = {}
    kept: list[tuple[int, str]] = []
    for lineno, line in enumerate(io.StringIO(decode_utf8(path, data), newline=""), start=1):
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        elif line.strip():
            kept.append((lineno, line))
    reader = csv.reader(line for _, line in kept)
    rows: list[tuple[int, list[str]]] = []
    consumed = 0
    try:
        for row in reader:
            rows.append((kept[consumed][0], row))
            consumed = reader.line_num  # a quoted field may span several lines
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}", line=kept[reader.line_num - 1][0]) from exc
    header = rows[0][1] if rows else []
    if columns is not None:
        if not rows:
            raise ParseError(f"{path} has no header row; expected {','.join(columns)}", line=1)
        if [h.strip().lower() for h in header] != columns:
            raise ParseError(f"{path} has header {header!r}; expected {columns}", line=rows[0][0])
    torn_tail = len(rows) > 1 and not kept[-1][1].endswith(("\n", "\r"))
    return meta, header, rows[1:], torn_tail


def read_csv(path: str | Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Counterpart of write_csv; returns (metadata, header, rows)."""
    meta, header, rows, _ = read_table(path)
    return meta, header, [row for _, row in rows]


def write_json(path: str | Path, meta: dict[str, str], payload: dict) -> None:
    document = {"metadata": meta, **payload}
    atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")
