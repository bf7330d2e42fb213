"""CSV/JSON output plumbing: atomic writes, metadata headers, digests.

Every artifact the pipeline writes starts with `# key=value` comment lines
(tool version, seed, input digests) followed by a regular CSV header or a
JSON document with a "metadata" member. Readers here skip those comments,
so stage outputs can be fed back in as stage inputs.
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


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` as UTF-8 via a temp file + rename so failures never leave
    partial output. The file gets open()'s mode: 0o666 less the umask."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(tmp, flags, 0o666)
    except FileNotFoundError:  # no parent directory yet
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, flags, 0o666)
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


def read_csv(path: str | Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Counterpart of write_csv; returns (metadata, header, rows)."""
    meta, header, numbered = read_csv_numbered(path)
    return meta, header, [row for _, row in numbered]


def read_csv_numbered(path: str | Path) -> tuple[dict[str, str], list[str], list[tuple[int, list[str]]]]:
    """read_csv, with each data row paired with its 1-based line number in the file."""
    meta: dict[str, str] = {}
    data_lines: list[str] = []
    line_numbers: list[int] = []
    with open(path, encoding="utf-8", newline="") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    meta[key.strip()] = value.strip()
                continue
            data_lines.append(line)
            line_numbers.append(lineno)
    reader = csv.reader(data_lines)
    rows: list[tuple[int, list[str]]] = []
    consumed = 0
    for row in reader:
        rows.append((line_numbers[consumed], row))
        consumed = reader.line_num  # a quoted field may span several lines
    if not rows:
        return meta, [], []
    return meta, rows[0][1], rows[1:]


def write_json(path: str | Path, meta: dict[str, str], payload: dict) -> None:
    document = {"metadata": meta, **payload}
    atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")
