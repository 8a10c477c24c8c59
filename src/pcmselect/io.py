"""File formats: CSV datasets, JSON configs, edge-list graphs, model files.

CSV datasets carry a mandatory header row of column names.  Roles, parameter
sets, grids, and experiment configs are JSON documents; structural models are
JSON with vertex, edge/coefficient, variance, and correlated-block fields.
Floats are written with ``repr`` so files round-trip bit-exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import ConfigInvalid, DataFormatError
from .experiment import McResult
from .graphs import Dag, parse_edge_list
from .scm import CovarianceSpec, LinearScm, parse_scm

__all__ = [
    "read_dataset_csv",
    "write_dataset_csv",
    "load_json",
    "save_json",
    "load_graph",
    "load_scm",
    "save_scm",
    "write_summary_csv",
    "write_estimates_csv",
]


def read_dataset_csv(path) -> Dataset:
    """Read a comma-separated dataset with a header row of column names.

    Blank lines are skipped; a row number counts the others, header included.
    Each row is parsed with one ``map(float, ...)``, and the whole table gets one
    shape check and one finiteness check; only when one of those fails is the
    table walked cell by cell, to name the first row with the wrong cell count or
    the first cell that is not a finite number.
    """
    text = Path(path).read_text()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    if any(not c for c in header):
        raise DataFormatError(f"{path}: blank column name in header", row=1)
    if len(set(header)) != len(header):
        raise DataFormatError(f"{path}: duplicate column name in header", row=1)
    body = lines[1:]
    try:
        values = np.array([list(map(float, line.split(","))) for line in body])
    except ValueError:  # a cell that is not a number, or rows of unequal length
        values = None
    if (values is None or values.shape != (len(body), len(header))
            or not np.isfinite(values).all()):
        _raise_first_bad_cell(path, body, len(header))
    if len(body) < 2:
        raise DataFormatError(f"{path}: needs at least 2 data rows, found {len(body)}")
    return Dataset(values, header)


def _raise_first_bad_cell(path, body, width: int) -> None:
    """Raise :class:`DataFormatError` at the first data row of ``body`` (row 2 on) that
    has other than ``width`` cells or a cell that is not a finite number; return
    if there is none (an empty ``body``)."""
    for i, line in enumerate(body, start=2):
        cells = line.split(",")
        if len(cells) != width:
            raise DataFormatError(f"{path}: expected {width} cells, found {len(cells)}", row=i)
        for j, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataFormatError(
                    f"{path}: not a finite number: {cell.strip()!r}", row=i, column=j
                )


def write_dataset_csv(path, dataset: Dataset) -> None:
    """Write a dataset that :func:`read_dataset_csv` reads back bit-exactly.

    Raises :class:`DataFormatError`, before anything is written, for a column
    name that the reader would split or misread: one that holds a comma, a double
    quote or a line break of :meth:`str.splitlines`, or that is empty or has
    leading or trailing whitespace (the reader strips each header cell).
    """
    for name in dataset.columns:
        if set(name) & set(',"') or name.splitlines() != [name] or name != name.strip():
            raise DataFormatError(f"{path}: column name {name!r} must be nonempty, hold no"
                                  " commas, double quotes or line breaks, and not begin or"
                                  " end with whitespace")
    lines = [",".join(dataset.columns)]
    for row in dataset.values:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path}: invalid JSON ({exc})") from exc


def save_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_graph(path) -> Dag:
    try:
        return parse_edge_list(Path(path).read_text())
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def load_scm(path) -> tuple[LinearScm, CovarianceSpec | None]:
    return parse_scm(load_json(path), DataFormatError, str(path))


def save_scm(path, scm: LinearScm, spec: CovarianceSpec | None = None) -> None:
    save_json(path, scm.to_dict(spec))


def write_summary_csv(path, result: McResult) -> None:
    lines = ["method,mean,sd,bias,sign,failures,params"]
    for row in result.summaries:
        params = json.dumps(row.params, sort_keys=True).replace('"', "'")
        lines.append(
            ",".join(
                [
                    row.method,
                    repr(row.mean),
                    repr(row.sd),
                    repr(row.bias),
                    repr(row.sign),
                    str(row.failures),
                    f'"{params}"',
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_estimates_csv(path, result: McResult) -> None:
    lines = ["replication,method,estimate"]
    for rep, method, value in result.estimates:
        lines.append(f"{rep},{method},{repr(value)}")
    Path(path).write_text("\n".join(lines) + "\n")
