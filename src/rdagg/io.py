"""CSV ingestion, validation, and canonical serialization.

File schemas (UTF-8, header row, '.' decimal separator):

- units.csv:    unit_id, outcome, weight, fe_* columns, ctrl_* columns,
                treatment_override (optional, may be blank per row)
- subunits.csv: subunit_id, unit_id, running, importance,
                win_flag (optional, 0/1, may be blank), attr_* columns
                (blank where a subunit lacks the attribute)
- edges.csv:    outcome_unit_id, subunit_id

Prefixes are stripped on load: fe_region becomes fixed-effect dimension
"region", ctrl_share_male becomes extra control "share_male", attr_votes
becomes attribute "votes".

``load_design`` reads the files straight into a ``design.Design`` of numpy
arrays; ``load_bundle`` is ``load_design`` plus record materialization.
Each file is read in one ``csv.reader`` pass, split into columns of
stripped cells, and each numeric column is converted whole with
``np.array(column, dtype=np.float64)``, which accepts exactly the strings
``float()`` accepts. The checks (non-empty ids and fixed-effect keys,
numbers that parse and are finite, positive importance, 0/1 win flags,
nonnegative weights) then run on whole columns. Parsing is strict, and a
failing file reports the error a row-by-row reader would have met first:
each check finds its first failing row, the earliest row wins, and within
a row the checks keep a fixed order. units.csv checks unit_id, the fe_*
keys, outcome, weight, the ctrl_* columns, treatment_override, then the
sign of the weight; subunits.csv checks subunit_id, importance (a number,
then positive), running, win_flag, then the attr_* columns. Schema errors
carry file, line, and column; the line is where the row starts, so a
quoted field that spans lines does not shift the rows after it. Every row
is split and counted before any cell is checked, so a row with the wrong
number of fields is reported before a bad value.

This module checks each file on its own. Ids (duplicates, subunits of
unknown units, edge endpoints) are not checked here but by
``design.Design.assemble`` and ``Design.require_owners``, the same gate the
record API and the simulator pass through.
"""

from __future__ import annotations

import csv
import gc
from dataclasses import dataclass, field
from math import isfinite
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .design import Design, Events, SpilloverGraph, SubunitRecord, UnitRecord, Units, _codes
from .errors import ConfigurationError, SchemaError


@dataclass
class ValidationReport:
    dropped_unit_ids: List[str] = field(default_factory=list)
    dropped_subunit_ids: List[str] = field(default_factory=list)
    dropped_edges: int = 0
    messages: List[str] = field(default_factory=list)


@dataclass
class InputBundle:
    units: List[UnitRecord]
    subunits: List[SubunitRecord]
    edges: Optional[SpilloverGraph] = None
    report: ValidationReport = field(default_factory=ValidationReport)


def _read_columns(path: str) -> Tuple[List[str], List[List[str]], Sequence[int]]:
    """Header, the columns as lists of stripped cells, and the line each row
    starts on (a quoted field may span lines).

    Blank rows are skipped; every row is split and counted before any cell
    is parsed.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"{path}: cannot open ({exc})")
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}:1: empty file, expected a header row")
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.line_num}: {exc}")
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise SchemaError(f"{path}:1: duplicate column names")
        # The row lists are acyclic, but the cyclic collector would rescan
        # them again and again while they pile up.
        collecting = gc.isenabled()
        gc.disable()
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.line_num}: {exc}")
        finally:
            if collecting:
                gc.enable()
        lines: Sequence[int] = range(2, len(rows) + 2)
        if reader.line_num != len(rows) + 1:
            # a quoted field spans lines: read again, and start each row on
            # the line after the one where the header or the row before ended
            handle.seek(0)
            reader = csv.reader(handle)
            ends = [reader.line_num for _ in reader]
            lines = [end + 1 for end in ends[:-1]]
    width = len(header)
    if width == 1 or set(map(len, rows)) - {width}:
        kept = [(line, row) for line, row in zip(lines, rows)
                if len(row) > 1 or (row and row[0].strip())]
        for line, row in kept:
            if len(row) != width:
                raise SchemaError(f"{path}:{line}: expected {width} fields, got {len(row)}")
        lines, rows = [line for line, _ in kept], [row for _, row in kept]
    columns = [list(map(str.strip, map(itemgetter(i), rows))) for i in range(width)]
    return header, columns, lines


def _columns(header: List[str], path: str, required: Sequence[str]) -> List[int]:
    """Positions of the ``required`` columns in ``header``."""
    for col in required:
        if col not in header:
            raise SchemaError(f"{path}:1: missing required column '{col}'")
    return [header.index(col) for col in required]


def _first(cells: List[str], value: str) -> Optional[int]:
    try:
        return cells.index(value)
    except ValueError:
        return None


class _FirstError:
    """The error a row-by-row reader of one file would raise first: checks
    note their first failing row in the order a row is checked, and the
    earliest row wins, on a tie the check noted first."""

    def __init__(self, path: str, lines: Sequence[int]):
        self.path, self.lines, self.first = path, lines, None

    def note(self, row, error: Exception) -> None:
        if row is not None and (self.first is None or row < self.first[0]):
            self.first = (int(row), error)

    def cell(self, row, column: str, text: str) -> None:
        if row is not None:
            self.note(row, SchemaError(f"{self.path}:{self.lines[row]}:{column}: {text}"))

    def raise_first(self) -> None:
        if self.first is not None:
            raise self.first[1]


def _number_column(cells: List[str], column: str, errors: _FirstError,
                   blank: bool = False) -> np.ndarray:
    """A column of finite numbers; with ``blank``, a blank cell is NaN.

    When a cell does not parse, the rows from it on come back NaN; the rows
    before it are what any later check of this row order can still see.
    """
    try:
        values = np.array([c or "nan" for c in cells] if blank else cells, dtype=np.float64)
    except ValueError:
        values = np.full(len(cells), np.nan)
        for i, c in enumerate(cells):
            if blank and not c:
                continue
            try:
                x = float(c)
            except ValueError:
                errors.cell(i, column, f"cannot parse '{c}' as a number")
                return values
            if not isfinite(x):
                break
            values[i] = x
    bad = ~np.isfinite(values)
    if blank:
        bad &= np.array([c != "" for c in cells], dtype=bool)
    i = next(iter(np.flatnonzero(bad)), None)
    if i is not None:
        errors.cell(i, column, f"value must be finite, got '{cells[i]}'")
    return values


_FLAGS = {"": np.nan, "0": 0.0, "1": 1.0}


def _flag_column(cells: List[str], errors: _FirstError) -> np.ndarray:
    """win_flag as 1, 0 or NaN (blank); 'true'/'false' in any case count."""
    values = set(cells)
    lookup = {v: float(v.lower() == "true") for v in values if v.lower() in ("true", "false")}
    lookup.update(_FLAGS)
    if not values <= lookup.keys():
        i = next(i for i, c in enumerate(cells) if c not in lookup)
        errors.cell(i, "win_flag", f"win_flag must be 0/1, got '{cells[i]}'")
    return np.fromiter(map(lookup.get, cells, [np.nan] * len(cells)), dtype=np.float64,
                       count=len(cells))


def load_units(path: str) -> Units:
    """The columns of units.csv, checked."""
    header, columns, lines = _read_columns(path)
    i_id, i_outcome, i_weight = _columns(header, path, ("unit_id", "outcome", "weight"))
    fe_cols = [(i, c) for i, c in enumerate(header) if c.startswith("fe_")]
    ctrl_cols = [(i, c) for i, c in enumerate(header) if c.startswith("ctrl_")]
    known = {"unit_id", "outcome", "weight", "treatment_override"}
    unknown = [c for c in header if c not in known and not c.startswith(("fe_", "ctrl_"))]
    if unknown:
        raise SchemaError(f"{path}:1: unknown columns {unknown}")
    ids = columns[i_id]
    errors = _FirstError(path, lines)
    errors.cell(_first(ids, ""), "unit_id", "empty id")
    for i, c in fe_cols:
        errors.cell(_first(columns[i], ""), c, "empty fixed-effect key")
    outcome = _number_column(columns[i_outcome], "outcome", errors)
    weight = _number_column(columns[i_weight], "weight", errors)
    controls = {c[5:]: _number_column(columns[i], c, errors) for i, c in ctrl_cols}
    override = np.full(len(ids), np.nan) if "treatment_override" not in header else (
        _number_column(columns[header.index("treatment_override")], "treatment_override",
                       errors, blank=True))
    negative = next(iter(np.flatnonzero(weight < 0)), None)
    if negative is not None:
        errors.note(negative, ConfigurationError(
            f"unit '{ids[negative]}': analysis_weight must be nonnegative"))
    errors.raise_first()
    return Units(ids, outcome, weight, override, controls, {c[3:]: columns[i] for i, c in fe_cols})


def load_subunits(path: str) -> Events:
    """The columns of subunits.csv, checked."""
    header, columns, lines = _read_columns(path)
    i_id, i_unit, i_running, i_importance = _columns(header, path, (
        "subunit_id", "unit_id", "running", "importance"))
    attr_cols = [(i, c) for i, c in enumerate(header) if c.startswith("attr_")]
    known = {"subunit_id", "unit_id", "running", "importance", "win_flag"}
    unknown = [c for c in header if c not in known and not c.startswith("attr_")]
    if unknown:
        raise SchemaError(f"{path}:1: unknown columns {unknown}")
    ids = columns[i_id]
    errors = _FirstError(path, lines)
    errors.cell(_first(ids, ""), "subunit_id", "empty id")
    importance = _number_column(columns[i_importance], "importance", errors)
    errors.cell(next(iter(np.flatnonzero(importance <= 0)), None), "importance",
                "must be positive")
    running = _number_column(columns[i_running], "running", errors)
    win_flag = np.full(len(ids), np.nan) if "win_flag" not in header else (
        _flag_column(columns[header.index("win_flag")], errors))
    attributes = {c[5:]: _number_column(columns[i], c, errors, blank=True) for i, c in attr_cols}
    errors.raise_first()
    return Events(ids, columns[i_unit], running, importance, win_flag, attributes)


def load_edges(path: str) -> SpilloverGraph:
    header, columns, lines = _read_columns(path)
    i_unit, i_sub = _columns(header, path, ("outcome_unit_id", "subunit_id"))
    blank = [i for i in (_first(columns[i_unit], ""), _first(columns[i_sub], "")) if i is not None]
    if blank:
        raise SchemaError(f"{path}:{lines[min(blank)]}: empty edge endpoint")
    return SpilloverGraph(tuple(zip(columns[i_unit], columns[i_sub])))


def load_design(units_path: str, subunits_path: str, edges_path: Optional[str] = None,
                weight_cap: Optional[float] = None) -> Tuple[Design, ValidationReport]:
    """Load and validate a full input set as a Design, with its report.

    The files are checked here for schema and values; ids and references
    are checked by ``Design.assemble`` on the files as read (duplicate ids,
    edge endpoints) and, without an edges file, by
    ``Design.require_owners`` (every subunit must belong to a known unit).
    ``weight_cap`` then optionally drops units whose total subunit
    importance exceeds the cap, with their subunits and every edge touching
    either, a consistency guard against impossible aggregates; dropped ids
    land in the report, which also counts the edges from kept units to
    dropped subunits.
    """
    units, events = load_units(units_path), load_subunits(subunits_path)
    graph = None if edges_path is None else load_edges(edges_path)
    design = Design.assemble(units, events, graph)
    if graph is None:
        design.require_owners()
    report = ValidationReport()
    if weight_cap is None:
        return design, report
    owner, names = _codes(design.events.unit_ids)
    flagged = np.bincount(owner, weights=design.events.importance,
                          minlength=len(names)) > weight_cap
    if not flagged.any():
        return design, report
    dropped = {u for u, f in zip(names, flagged) if f}
    gone = flagged[owner]
    report.dropped_unit_ids = sorted(dropped)
    report.dropped_subunit_ids = sorted(s for s, g in zip(design.events.ids, gone) if g)
    report.messages.append(
        f"dropped {len(dropped)} units with total subunit weight above "
        f"{weight_cap:g} (and {len(report.dropped_subunit_ids)} subunits)"
    )
    units = design.units.take(np.flatnonzero([u not in dropped for u in design.units.ids]))
    events = design.events.take(np.flatnonzero(~gone))
    if graph is not None:
        kept = [(u, s) for u, s in graph.edges if u not in dropped]
        dropped_subunits = set(report.dropped_subunit_ids)
        graph = SpilloverGraph(tuple(e for e in kept if e[1] not in dropped_subunits))
        report.dropped_edges = len(kept) - len(graph.edges)
        if report.dropped_edges:
            report.messages.append(f"dropped {report.dropped_edges} edges from kept "
                                   f"units to dropped subunits")
    return Design.assemble(units, events, graph), report


def load_bundle(units_path: str, subunits_path: str, edges_path: Optional[str] = None,
                weight_cap: Optional[float] = None) -> InputBundle:
    """``load_design`` as records: units sorted by id, subunits and edges in
    file order."""
    design, report = load_design(units_path, subunits_path, edges_path, weight_cap)
    units, subunits, edges = design.to_records()
    return InputBundle(units=units, subunits=subunits, edges=edges, report=report)


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize_units(units: Sequence[UnitRecord]) -> str:
    fe_dims = sorted({k for u in units for k in u.fe_keys})
    ctrl_labels = sorted({k for u in units for k in u.extra_controls})
    header = (
        ["unit_id", "outcome", "weight"]
        + [f"fe_{d}" for d in fe_dims]
        + [f"ctrl_{c}" for c in ctrl_labels]
        + ["treatment_override"]
    )
    lines = [",".join(header)]
    for u in sorted(units, key=lambda u: u.unit_id):
        row = [u.unit_id, _fmt(u.outcome), _fmt(u.analysis_weight)]
        for d in fe_dims:
            key = str(u.fe_keys.get(d, ""))
            if not key:
                # load_bundle rejects a blank fixed-effect cell
                raise SchemaError(
                    f"unit '{u.unit_id}' has no key for fixed-effect dimension '{d}'"
                )
            row.append(key)
        for c in ctrl_labels:
            if c not in u.extra_controls:
                # load_bundle rejects a blank control cell
                raise SchemaError(f"unit '{u.unit_id}' has no value for control '{c}'")
            row.append(_fmt(u.extra_controls[c]))
        row.append("" if u.treatment_override is None else _fmt(u.treatment_override))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def serialize_subunits(subunits: Sequence[SubunitRecord]) -> str:
    attr_labels = sorted({k for s in subunits for k in s.attributes})
    header = ["subunit_id", "unit_id", "running", "importance", "win_flag"] + [
        f"attr_{a}" for a in attr_labels
    ]
    lines = [",".join(header)]
    for s in sorted(subunits, key=lambda s: s.subunit_id):
        row = [s.subunit_id, s.unit_id, _fmt(s.running), _fmt(s.importance)]
        row.append("" if s.win_flag is None else ("1" if s.win_flag else "0"))
        row += [_fmt(s.attributes[a]) if a in s.attributes else "" for a in attr_labels]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def serialize_edges(edges: SpilloverGraph) -> str:
    lines = ["outcome_unit_id,subunit_id"]
    for u, s in sorted(edges.edges):
        lines.append(f"{u},{s}")
    return "\n".join(lines) + "\n"


def write_bundle(bundle: InputBundle, units_path: str, subunits_path: str,
                 edges_path: Optional[str] = None) -> None:
    """Serialize a bundle back to canonical CSV (sorted rows, full-precision floats).

    Every file is serialized before any is written, so a bundle that
    ``load_bundle`` would reject (a unit without a key for a fixed-effect
    dimension, or a value for a control, that another unit has) raises
    SchemaError and writes nothing.
    """
    texts = [(units_path, serialize_units(bundle.units)),
             (subunits_path, serialize_subunits(bundle.subunits))]
    if edges_path is not None and bundle.edges is not None:
        texts.append((edges_path, serialize_edges(bundle.edges)))
    for path, text in texts:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
