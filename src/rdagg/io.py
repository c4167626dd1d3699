"""CSV ingestion, validation, and canonical serialization.

File schemas (UTF-8, header row, '.' decimal separator):

- units.csv:    unit_id, outcome, weight, fe_* columns, ctrl_* columns,
                treatment_override (optional, may be blank per row)
- subunits.csv: subunit_id, unit_id, running, importance,
                win_flag (optional, 0/1, may be blank), attr_* columns
                (blank where a subunit lacks the attribute)
- edges.csv:    outcome_unit_id, subunit_id (one row per distinct link)

Prefixes are stripped on load: fe_region becomes fixed-effect dimension
"region", ctrl_share_male becomes extra control "share_male", attr_votes
becomes attribute "votes".

``load_design`` reads the files straight into a ``design.Design`` of numpy
arrays; ``load_bundle`` is ``load_design`` plus record materialization.
``load_numbers`` reads any other keyed numeric table (a key column and
numeric columns by name), such as the CLI's micro records and series.
``load_units``, ``load_subunits`` and ``load_edges`` return the column
tables ``Units``, ``Events`` and ``Edges``; the last holds the two
endpoint columns of edges.csv coded (``Edges.code``): each column's
distinct ids, and one code per row in file order.
Each file is read whole and decoded by ``decode_utf8``; a byte that does
not decode is a schema error that names its line and offset. A plain file
(no '"', carriage return or NUL, every line with the header's number of
fields, at least two, no line longer than ``csv.field_size_limit()``, no
duplicate column name) is cut into columns with one ``str.split`` of its
whole text. Any other file, which may hold quoted fields, blank or ragged
rows, or "\\r\\n" line ends, is read by ``csv.reader``, so the errors of
the split (an empty file, a duplicate column name, a row with the wrong
number of fields, a field over the limit) all come from that path. Both
paths give the same columns of stripped cells. Each numeric column is
converted whole with ``np.array(column, dtype=np.float64)``, which
accepts exactly the strings ``float()`` accepts. The checks (non-empty
ids and fixed-effect keys, numbers that parse and are finite, positive
importance, 0/1 win flags, nonnegative weights) then run on whole
columns. Parsing is strict, and a failing file reports the error a
row-by-row reader would have met first: each check finds its first
failing row, the earliest row wins, and within a row the checks keep a
fixed order. units.csv checks unit_id, the fe_*
keys, outcome, weight, the ctrl_* columns, treatment_override, then the
sign of the weight; subunits.csv checks subunit_id, importance (a number,
then positive), running, win_flag, then the attr_* columns. Schema errors
carry file, line, and column; the line is where the row starts, so a
quoted field that spans lines does not shift the rows after it. Every row
is split and counted before any cell is checked, so a row with the wrong
number of fields is reported before a bad value.

This module checks each file on its own. Ids (duplicates, subunits of
unknown units, edge endpoints, edges.csv rows that repeat a link) are not
checked here but by ``design.Design.assemble`` and
``Design.require_owners``, the same gate the record API and the simulator
pass through.
"""

from __future__ import annotations

import csv
import gc
from dataclasses import dataclass, field
from io import StringIO
from itertools import compress
from math import isfinite
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .design import Design, Edges, Events, SpilloverGraph, SubunitRecord, UnitRecord, Units
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


# Besides "\n" and "\r", the ASCII characters that ``str.strip`` removes.
_ASCII_SPACE = " \t\x0b\x0c\x1c\x1d\x1e\x1f"


def decode_utf8(data: bytes, path: str) -> str:
    """``data``, the bytes of the file at ``path``, decoded as UTF-8; a byte
    that does not decode is a SchemaError naming its line and offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as csv.reader numbers lines: "\n", "\r\n" and "\r" end one
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise SchemaError(f"{path}:{line}: not valid UTF-8 "
                          f"(byte 0x{data[exc.start]:02x} at offset {exc.start})") from None


def _read_text(path: str) -> Tuple[str, bytes]:
    """The text of the file at ``path``, decoded as UTF-8, and its bytes."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SchemaError(f"{path}: cannot open ({exc})")
    return decode_utf8(data, path), data


def _read_columns(path: str) -> Tuple[List[str], List[List[str]], Sequence[int]]:
    """Header, the columns as lists of stripped cells, and the line each row
    starts on: one ``str.split`` of a plain text (see ``_plain_width``),
    which gives what ``_reader_columns`` gives, and ``_reader_columns`` for
    any other text."""
    text, data = _read_text(path)
    width = _plain_width(data)
    del data
    if not width:
        return _reader_columns(text, path)
    strip = not text.isascii() or any(c in text for c in _ASCII_SPACE)
    trailing = text.endswith("\n")
    joined = text.replace("\n", ",")
    del text  # so that the split does not hold the text twice
    cells = joined.split(",")
    del joined
    if trailing:
        cells.pop()
    columns = [cells[width + i::width] for i in range(width)]
    if strip:
        columns = [list(map(str.strip, column)) for column in columns]
    return [h.strip() for h in cells[:width]], columns, range(2, len(cells) // width + 1)


def _plain_width(data: bytes) -> int:
    """The header width of a plain file whose UTF-8 bytes are ``data``, 0
    for any other file.

    A file is plain when it has no '"', '\\r' or '\\0'; when, after one
    trailing '\\n' is dropped, each of its lines holds width - 1 commas for
    a header of width at least 2, and at most ``csv.field_size_limit()``
    bytes; and when its stripped header has no duplicate. ``csv.reader``
    splits such a line at its commas and nowhere else, and no row is blank
    or ragged.
    """
    if b'"' in data or b"\r" in data or b"\0" in data:
        return 0
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if not data.endswith(b"\n"):  # end the last line as if a "\n" followed
        ends = np.append(ends, raw.size)
    # the commas before each line's end
    commas = np.searchsorted(np.flatnonzero(raw == ord(",")), ends)
    width = int(commas[0]) + 1
    if width < 2 or not np.array_equal(commas, np.arange(1, ends.size + 1) * (width - 1)):
        return 0
    if np.diff(ends, prepend=-1).max() - 1 > csv.field_size_limit():
        return 0
    header = [h.strip() for h in data[:ends[0]].decode("utf-8").split(",")]
    return width if len(set(header)) == width else 0


def _reader_columns(text: str, path: str) -> Tuple[List[str], List[List[str]], Sequence[int]]:
    """Header, the columns as lists of stripped cells, and the line each row
    starts on (a quoted field may span lines), read from ``text`` by
    ``csv.reader``.

    Blank rows are skipped; every row is split and counted before any cell
    is parsed.
    """
    handle = StringIO(text, newline="")
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


def load_edges(path: str) -> Edges:
    """The two columns of edges.csv, checked for blank endpoints."""
    header, columns, lines = _read_columns(path)
    i_unit, i_sub = _columns(header, path, ("outcome_unit_id", "subunit_id"))
    blank = [i for i in (_first(columns[i_unit], ""), _first(columns[i_sub], "")) if i is not None]
    if blank:
        raise SchemaError(f"{path}:{lines[min(blank)]}: empty edge endpoint")
    return Edges.code(columns[i_unit], columns[i_sub])


def load_numbers(path: str, key: str, numbers: Sequence[str]) -> tuple:
    """The ``key`` column of a CSV file as strings and its ``numbers``
    columns as lists of finite floats, read and checked as every file here
    is; the file may hold other columns too."""
    header, columns, lines = _read_columns(path)
    positions = _columns(header, path, (key, *numbers))
    errors = _FirstError(path, lines)
    values = [_number_column(columns[i], name, errors).tolist()
              for i, name in zip(positions[1:], numbers)]
    errors.raise_first()
    return (columns[positions[0]], *values)


def load_design(units_path: str, subunits_path: str, edges_path: Optional[str] = None,
                weight_cap: Optional[float] = None) -> Tuple[Design, ValidationReport]:
    """Load and validate a full input set as a Design, with its report.

    The files are checked here for schema and values; ids and references
    are checked by ``Design.assemble`` on the files as read (duplicate ids,
    edge endpoints, duplicate edges) and, without an edges file, by
    ``Design.require_owners`` (every subunit must belong to a known unit).
    ``weight_cap`` then optionally drops units whose total subunit
    importance exceeds the cap, with their subunits and every edge touching
    either, a consistency guard against impossible aggregates; the kept rows
    are a ``Design.subset`` of the checked design, so no id is looked up
    twice. Subunits whose unit id names no unit (which an edges file allows)
    count toward no unit and stay. Dropped ids land in the report, which
    also counts the edges from kept units to dropped subunits.
    """
    units, events = load_units(units_path), load_subunits(subunits_path)
    edges = None if edges_path is None else load_edges(edges_path)
    design = Design.assemble(units, events, edges)
    if edges is None:
        design.require_owners()
    report = ValidationReport()
    if weight_cap is None:
        return design, report
    owner = design.event_unit
    # bin 0 sums the events of no unit
    flagged = np.bincount(owner + 1, weights=design.events.importance,
                          minlength=len(design.units) + 1)[1:] > weight_cap
    if not flagged.any():
        return design, report
    gone = (owner >= 0) & flagged[owner]
    report.dropped_unit_ids = list(compress(design.units.ids, flagged))
    report.dropped_subunit_ids = sorted(compress(design.events.ids, gone))
    report.messages.append(
        f"dropped {len(report.dropped_unit_ids)} units with total subunit weight above "
        f"{weight_cap:g} (and {len(report.dropped_subunit_ids)} subunits)"
    )
    if edges is not None:
        kept, cut = ~flagged[design.edge_unit], gone[design.edge_event]
        edges = kept & ~cut
        report.dropped_edges = int((kept & cut).sum())
        if report.dropped_edges:
            report.messages.append(f"dropped {report.dropped_edges} edges from kept "
                                   f"units to dropped subunits")
    return design.subset(~flagged, ~gone, edges), report


def load_bundle(units_path: str, subunits_path: str, edges_path: Optional[str] = None,
                weight_cap: Optional[float] = None) -> InputBundle:
    """``load_design`` as records: units sorted by id, subunits and edges in
    file order."""
    design, report = load_design(units_path, subunits_path, edges_path, weight_cap)
    units, subunits, edges = design.to_records()
    return InputBundle(units=units, subunits=subunits, edges=edges, report=report)


def _fmt(x: float) -> str:
    return repr(float(x))


def _bare(text: str, what: str) -> str:
    """``text``, refused when it has leading or trailing whitespace: the
    loader strips every cell, so it would not read back as written."""
    if text != text.strip():
        raise SchemaError(f"{what} {text!r} has leading or trailing whitespace")
    return text


def _csv_writer():
    """A string buffer and a CSV writer into it (quoting only where needed)."""
    out = StringIO()
    return out, csv.writer(out, lineterminator="\n")


def serialize_units(units: Sequence[UnitRecord]) -> str:
    fe_dims = sorted({k for u in units for k in u.fe_keys})
    ctrl_labels = sorted({k for u in units for k in u.extra_controls})
    header = (
        ["unit_id", "outcome", "weight"]
        + [f"fe_{d}" for d in fe_dims]
        + [f"ctrl_{c}" for c in ctrl_labels]
        + ["treatment_override"]
    )
    out, writer = _csv_writer()
    writer.writerow(header)
    for u in sorted(units, key=lambda u: u.unit_id):
        row = [_bare(u.unit_id, "unit id"), _fmt(u.outcome), _fmt(u.analysis_weight)]
        for d in fe_dims:
            key = _bare(str(u.fe_keys.get(d, "")), f"fixed-effect key of '{d}'")
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
        writer.writerow(row)
    return out.getvalue()


def serialize_subunits(subunits: Sequence[SubunitRecord]) -> str:
    attr_labels = sorted({k for s in subunits for k in s.attributes})
    header = ["subunit_id", "unit_id", "running", "importance", "win_flag"] + [
        f"attr_{a}" for a in attr_labels
    ]
    out, writer = _csv_writer()
    writer.writerow(header)
    for s in sorted(subunits, key=lambda s: s.subunit_id):
        row = [_bare(s.subunit_id, "subunit id"), _bare(s.unit_id, "unit id"),
               _fmt(s.running), _fmt(s.importance)]
        row.append("" if s.win_flag is None else ("1" if s.win_flag else "0"))
        row += [_fmt(s.attributes[a]) if a in s.attributes else "" for a in attr_labels]
        writer.writerow(row)
    return out.getvalue()


def serialize_edges(edges: SpilloverGraph) -> str:
    out, writer = _csv_writer()
    writer.writerow(("outcome_unit_id", "subunit_id"))
    writer.writerows((_bare(unit, "edge unit id"), _bare(subunit, "edge subunit id"))
                     for unit, subunit in sorted(edges.edges))
    return out.getvalue()


def write_bundle(bundle: InputBundle, units_path: str, subunits_path: str,
                 edges_path: Optional[str] = None) -> None:
    """Serialize a bundle back to canonical CSV (sorted rows, full-precision floats).

    Every file is serialized before any is written, so a bundle that
    ``load_bundle`` would reject (a unit without a key for a fixed-effect
    dimension, or a value for a control, that another unit has) or would
    not read back as written (an id, unit reference, fixed-effect key or
    edge endpoint with leading or trailing whitespace, which the loader
    strips) raises SchemaError and writes nothing.
    """
    texts = [(units_path, serialize_units(bundle.units)),
             (subunits_path, serialize_subunits(bundle.subunits))]
    if edges_path is not None and bundle.edges is not None:
        texts.append((edges_path, serialize_edges(bundle.edges)))
    for path, text in texts:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
