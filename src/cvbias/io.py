"""CSV/JSON input and output for the command-line surface."""

from __future__ import annotations

import csv
import hashlib
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


def read_matrix_csv(path):
    """Read a numeric CSV; returns (values, header-or-None).

    The first non-blank line is a header unless every cell of it parses as
    a float; a UTF-8 byte-order mark before it is dropped. The rest of the
    open file streams into ``np.loadtxt``: cells may be quoted, blank lines
    are skipped and ``#`` is an ordinary cell. A non-numeric cell, a ragged
    row or a file without data rows raises UnreadableInput.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            first = next((line for line in fh if line.strip("\r\n")), "")
            cells = next(csv.reader([first]))
            header = None
            rows = itertools.chain([first], fh)
            if not all(_is_float(c) for c in cells):
                header = [c.strip() for c in cells]
                rows = fh
            with warnings.catch_warnings():
                # loadtxt's only warning: the input held no data rows
                warnings.simplefilter("error", UserWarning)
                values = np.loadtxt(
                    rows, delimiter=",", quotechar='"', comments=None, ndmin=2
                )
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableInput(f"cannot read {path}: {exc}") from exc
    except UserWarning:
        raise UnreadableInput(f"{path} has no data rows") from None
    except ValueError as exc:
        raise UnreadableInput(f"{path}: {exc}") from exc
    return values, header


def read_dataset_csv(path, target: str) -> Dataset:
    """Dataset CSV with a header row; ``target`` names the response column."""
    values, header = read_matrix_csv(path)
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
    return Dataset(
        values[:, keep],
        values[:, ti].copy(),
        columns=tuple(header[i] for i in keep),
    )


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


def sha256_file(path) -> str:
    """Hex SHA-256 of the file at ``path``, read in 64 KiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()
