"""CSV/JSON input and output for the command-line surface."""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import warnings
from contextlib import nullcontext

import numpy as np

from .conjlm import Dataset
from .errors import SchemaMismatch, UnreadableInput


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


class _Sha256Reader(io.RawIOBase):
    """An unbuffered binary ``file`` as a raw stream that feeds every byte
    it returns to ``sha256``."""

    def __init__(self, file):
        self._file = file
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


def open_hashed(path, encoding: str, newline):
    """The file at ``path`` opened as text, and the SHA-256 that every byte
    read from it feeds: once the text is read to its end, the digest is that
    of the bytes it was decoded from."""
    raw = _Sha256Reader(open(path, "rb", buffering=0))
    text = io.TextIOWrapper(io.BufferedReader(raw, 1 << 16), encoding=encoding, newline=newline)
    return text, raw.sha256


_LOADTXT = {"delimiter": ",", "quotechar": '"', "comments": None, "ndmin": 2}


def _rejected_line(path, header) -> str | None:
    """The first line of ``path`` that the parser rejects, read again, as
    "line 4, column 2: 'x' is not a number" or "line 5 has 3 cells where
    line 3 has 2 cells", or None when no line is rejected on its own.

    Lines are counted as the reader splits them (LF, CRLF or CR), blank
    lines and the header included.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
        # a blank line alone reads as an empty input
        warnings.simplefilter("ignore", UserWarning)
        lines = ((number, line) for number, line in enumerate(fh, 1) if line.strip("\r\n"))
        # every row has the cell count of the header, or else of the first row
        first = (next(lines)[0], len(header)) if header is not None else None
        for number, line in lines:
            try:
                width = np.loadtxt([line], **_LOADTXT).shape[1]
                cells = None
            except ValueError:
                cells = np.loadtxt([line], dtype=str, **_LOADTXT)[0].tolist()
                width = len(cells)
            first = first or (number, width)
            if width != first[1]:
                has = [f"{k} cell" + "s" * (k != 1) for k in (width, first[1])]
                return f"line {number} has {has[0]} where line {first[0]} has {has[1]}"
            for column, cell in enumerate(cells or (), 1):
                try:
                    # quoted again, so that the cell is read alone as the parser read it
                    np.loadtxt(['"' + cell.replace('"', '""') + '"'], **_LOADTXT)
                except ValueError:
                    return f"line {number}, column {column}: {cell!r} is not a number"
    return None


def read_matrix_csv(path):
    """Read a numeric CSV; returns (values, header-or-None, SHA-256).

    The first non-blank line is a header unless every cell of it parses as
    a float; a UTF-8 byte-order mark before it is dropped. The rest of the
    open file streams into ``np.loadtxt``: cells may be quoted, blank lines
    are skipped and ``#`` is an ordinary cell. The file is read once, and
    the hex SHA-256 is that of the bytes parsed, the whole file. A
    non-numeric cell, a row whose cell count is not the header's (or,
    without a header, the first row's) or a file without data rows raises
    UnreadableInput; the first two name the file's line.
    """
    header = None
    try:
        fh, sha256 = open_hashed(path, "utf-8-sig", "")
        with fh:
            first = next((line for line in fh if line.strip("\r\n")), "")
            cells = next(csv.reader([first]))
            rows = itertools.chain([first], fh)
            if not all(_is_float(c) for c in cells):
                header = [c.strip() for c in cells]
                rows = fh
            with warnings.catch_warnings():
                # loadtxt's only warning: the input held no data rows
                warnings.simplefilter("error", UserWarning)
                values = np.loadtxt(rows, **_LOADTXT)
            if header is not None and values.shape[1] != len(header):
                raise ValueError(f"{values.shape[1]} columns under a header of {len(header)}")
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableInput(f"cannot read {path}: {exc}") from exc
    except UserWarning:
        raise UnreadableInput(f"{path} has no data rows") from None
    except ValueError as exc:
        try:
            where = _rejected_line(path, header)
        except (OSError, ValueError):  # a decoding error is a ValueError
            where = None
        raise UnreadableInput(f"{path}: {where or exc}") from exc
    return values, header, sha256.hexdigest()


def read_dataset_csv(path, target: str) -> tuple[Dataset, str]:
    """Dataset CSV with a header row, ``target`` naming the response column,
    and the hex SHA-256 of the bytes parsed (``read_matrix_csv``)."""
    values, header, digest = read_matrix_csv(path)
    if header is None:
        raise SchemaMismatch(f"{path}: dataset CSV needs a header row")
    dups = sorted({c for c in header if header.count(c) > 1})
    if dups:
        raise SchemaMismatch(f"{path}: duplicate column names: {', '.join(dups)}")
    if target not in header:
        raise SchemaMismatch(
            f"{path}: target column {target!r} not found (columns: {', '.join(header)})"
        )
    ti = header.index(target)
    keep = [i for i in range(len(header)) if i != ti]
    # the response is copied too: a view of it would keep the whole parsed
    # matrix alive for as long as the dataset
    data = Dataset(values[:, keep], values[:, ti].copy(), columns=tuple(header[i] for i in keep))
    return data, digest


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_rows_csv(dest, rows: list[dict]) -> None:
    """Write dict rows as CSV to a path or an open text stream (byte-stable).

    The columns are the first row's keys in order; lines end in CRLF
    whatever the destination, so a table's bytes do not depend on it.
    """
    columns = list(rows[0]) if rows else []
    target = (
        open(dest, "w", newline="", encoding="utf-8")
        if isinstance(dest, (str, os.PathLike))
        else nullcontext(dest)
    )
    with target as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def dump_json(obj) -> str:
    """Deterministic JSON text (sorted keys, stable float repr)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)

