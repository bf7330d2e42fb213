"""CSV/JSON plumbing: atomic writes, metadata headers, digests, one CSV reader.

Every artifact the pipeline writes starts with `# key=value` comment lines
(tool version, seed, input digests) followed by a regular CSV header or a
JSON document with a "metadata" member. `read_table` is the one reader of
every CSV input file, stage artifacts and the bundled data alike; it skips
the `#` lines, because no stage reads another's metadata back.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__
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


def append_lines(path: str | Path, lines: str, header: str) -> None:
    """Append `lines`, whole lines each ending in a line break, to `path` as
    UTF-8 on an O_APPEND descriptor; an empty or missing file (created) gets
    `header` first. Every byte is written, or none: a write that fails part
    way cuts the file back to where the append began, then raises.
    """
    path = Path(path)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    except FileNotFoundError:
        fd = _create(path)
    try:
        start = os.lseek(fd, 0, os.SEEK_END)
        data = memoryview((("" if start else header) + lines).encode("utf-8"))
        try:
            while data:
                data = data[os.write(fd, data):]
        except BaseException:
            os.ftruncate(fd, start)
            raise
    finally:
        os.close(fd)


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def standard_metadata(seed: int, inputs: dict[str, str]) -> dict[str, str]:
    """The metadata block every output carries (no timestamps: outputs must
    be byte-identical across reruns)."""
    meta = {"tool": f"admac {__version__}", "seed": str(seed)}
    for name, digest in inputs.items():
        meta[f"input_{name}"] = digest
    return meta


def metadata_header(meta: dict[str, str]) -> str:
    """`meta` as the `# key=value` lines that open a CSV artifact, each ending in a line break."""
    return "".join(f"# {key}={value}\n" for key, value in meta.items())


def write_csv(
    path: str | Path,
    meta: dict[str, str],
    header: Sequence[str],
    rows: Iterable[Sequence],
) -> None:
    buf = io.StringIO()
    buf.write(metadata_header(meta))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def decode_utf8(path: str | Path, data: bytes) -> str:
    """`data` as text; bytes that are not UTF-8 raise ParseError naming `path` and the line."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path} is not valid UTF-8: {exc}", line=line) from exc


def read_table(path: str | Path, columns: list[str], *, data: bytes | None = None) -> list[tuple[int, list[str]]]:
    """The one reader of CSV input files: the data rows below the header,
    each as (1-based line number in the file, fields).

    `data` is the file's bytes when the caller has already read them. `#`
    lines and blank lines are skipped. The header must equal `columns` once
    stripped and lower-cased. A last line without a line break is read like
    any other; the live cache cuts such a torn tail off before it calls
    this. Bytes that are not UTF-8, a row the csv module rejects, an empty
    file and a wrong header raise ParseError.
    """
    if data is None:
        data = Path(path).read_bytes()
    lines = enumerate(io.StringIO(decode_utf8(path, data), newline=""), start=1)
    kept = [(lineno, line) for lineno, line in lines if line.strip() and not line.startswith("#")]
    reader = csv.reader(line for _, line in kept)
    rows: list[tuple[int, list[str]]] = []
    consumed = 0
    try:
        for row in reader:
            rows.append((kept[consumed][0], row))
            consumed = reader.line_num  # a quoted field may span several lines
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}", line=kept[reader.line_num - 1][0]) from exc
    if not rows:
        raise ParseError(f"{path} has no header row; expected {','.join(columns)}", line=1)
    header_line, header = rows[0]
    if [h.strip().lower() for h in header] != columns:
        raise ParseError(f"{path} has header {header!r}; expected {columns}", line=header_line)
    return rows[1:]


def write_json(path: str | Path, meta: dict[str, str], payload: dict) -> None:
    document = {"metadata": meta, **payload}
    atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")
