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
becomes attribute "votes". Parsing is strict; schema errors carry file,
line, and column.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .design import SpilloverGraph, SubunitRecord, UnitRecord
from .errors import IntegrityError, SchemaError


@dataclass
class ValidationReport:
    dropped_unit_ids: List[str] = field(default_factory=list)
    dropped_subunit_ids: List[str] = field(default_factory=list)
    messages: List[str] = field(default_factory=list)


@dataclass
class InputBundle:
    units: List[UnitRecord]
    subunits: List[SubunitRecord]
    edges: Optional[SpilloverGraph] = None
    report: ValidationReport = field(default_factory=ValidationReport)


def _read_rows(path: str) -> Tuple[List[str], List[dict], List[int]]:
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
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise SchemaError(f"{path}:1: duplicate column names")
        rows, lines = [], []
        for lineno, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and raw[0].strip() == ""):
                continue
            if len(raw) != len(header):
                raise SchemaError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(raw)}"
                )
            rows.append(dict(zip(header, (cell.strip() for cell in raw))))
            lines.append(lineno)
    return header, rows, lines


def _parse_float(value: str, path: str, line: int, column: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise SchemaError(f"{path}:{line}:{column}: cannot parse '{value}' as a number")
    if not np.isfinite(out):
        raise SchemaError(f"{path}:{line}:{column}: value must be finite, got '{value}'")
    return out


def _parse_flag(value: str, path: str, line: int, column: str) -> Optional[bool]:
    if value == "":
        return None
    if value in ("0", "1"):
        return value == "1"
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise SchemaError(f"{path}:{line}:{column}: win_flag must be 0/1, got '{value}'")


def load_units(path: str) -> List[UnitRecord]:
    header, rows, lines = _read_rows(path)
    required = ("unit_id", "outcome", "weight")
    for col in required:
        if col not in header:
            raise SchemaError(f"{path}:1: missing required column '{col}'")
    fe_cols = [c for c in header if c.startswith("fe_")]
    ctrl_cols = [c for c in header if c.startswith("ctrl_")]
    known = set(required) | set(fe_cols) | set(ctrl_cols) | {"treatment_override"}
    unknown = [c for c in header if c not in known]
    if unknown:
        raise SchemaError(f"{path}:1: unknown columns {unknown}")
    units = []
    for row, line in zip(rows, lines):
        uid = row["unit_id"]
        if not uid:
            raise SchemaError(f"{path}:{line}:unit_id: empty id")
        for c in fe_cols:
            if not row[c]:
                raise SchemaError(f"{path}:{line}:{c}: empty fixed-effect key")
        override = row.get("treatment_override", "")
        units.append(
            UnitRecord(
                unit_id=uid,
                outcome=_parse_float(row["outcome"], path, line, "outcome"),
                analysis_weight=_parse_float(row["weight"], path, line, "weight"),
                fe_keys={c[3:]: row[c] for c in fe_cols},
                extra_controls={
                    c[5:]: _parse_float(row[c], path, line, c) for c in ctrl_cols
                },
                treatment_override=(
                    None if override == "" else _parse_float(override, path, line, "treatment_override")
                ),
            )
        )
    return units


def load_subunits(path: str) -> List[SubunitRecord]:
    header, rows, lines = _read_rows(path)
    required = ("subunit_id", "unit_id", "running", "importance")
    for col in required:
        if col not in header:
            raise SchemaError(f"{path}:1: missing required column '{col}'")
    attr_cols = [c for c in header if c.startswith("attr_")]
    known = set(required) | set(attr_cols) | {"win_flag"}
    unknown = [c for c in header if c not in known]
    if unknown:
        raise SchemaError(f"{path}:1: unknown columns {unknown}")
    subunits = []
    for row, line in zip(rows, lines):
        sid = row["subunit_id"]
        if not sid:
            raise SchemaError(f"{path}:{line}:subunit_id: empty id")
        importance = _parse_float(row["importance"], path, line, "importance")
        if importance <= 0:
            raise SchemaError(f"{path}:{line}:importance: must be positive")
        subunits.append(
            SubunitRecord(
                subunit_id=sid,
                unit_id=row["unit_id"],
                running=_parse_float(row["running"], path, line, "running"),
                importance=importance,
                win_flag=_parse_flag(row.get("win_flag", ""), path, line, "win_flag"),
                attributes={
                    c[5:]: _parse_float(row[c], path, line, c) for c in attr_cols if row[c]
                },
            )
        )
    return subunits


def load_edges(path: str) -> SpilloverGraph:
    header, rows, lines = _read_rows(path)
    for col in ("outcome_unit_id", "subunit_id"):
        if col not in header:
            raise SchemaError(f"{path}:1: missing required column '{col}'")
    edges = []
    for row, line in zip(rows, lines):
        if not row["outcome_unit_id"] or not row["subunit_id"]:
            raise SchemaError(f"{path}:{line}: empty edge endpoint")
        edges.append((row["outcome_unit_id"], row["subunit_id"]))
    return SpilloverGraph(tuple(edges))


def load_bundle(
    units_path: str,
    subunits_path: str,
    edges_path: Optional[str] = None,
    weight_cap: Optional[float] = None,
) -> InputBundle:
    """Load and validate a full input set.

    Checks duplicate ids and referential integrity: without an edges file,
    every subunit must belong to a known unit; with one, every edge endpoint
    must resolve. ``weight_cap`` optionally drops units whose total subunit
    importance exceeds the cap (with their subunits), a consistency guard
    against impossible aggregates; dropped ids land in the report.
    """
    units = load_units(units_path)
    subunits = load_subunits(subunits_path)
    report = ValidationReport()

    unit_ids = [u.unit_id for u in units]
    dup_units = sorted(uid for uid, k in Counter(unit_ids).items() if k > 1)
    if dup_units:
        raise IntegrityError(f"duplicate unit ids: {dup_units[:5]}")
    sub_ids = [s.subunit_id for s in subunits]
    dup_subs = sorted(sid for sid, k in Counter(sub_ids).items() if k > 1)
    if dup_subs:
        raise IntegrityError(f"duplicate subunit ids: {dup_subs[:5]}")

    known_units = set(unit_ids)
    edges = None
    if edges_path is None:
        orphans = sorted({s.subunit_id for s in subunits if s.unit_id not in known_units})
        if orphans:
            raise IntegrityError(f"subunits referencing missing units: {orphans[:5]}")
    else:
        edges = load_edges(edges_path)
        known_subs = set(sub_ids)
        bad = sorted(
            {u for u, s in edges.edges if u not in known_units}
            | {s for u, s in edges.edges if s not in known_subs}
        )
        if bad:
            raise IntegrityError(f"edges referencing missing endpoints: {bad[:5]}")

    if weight_cap is not None:
        totals: Dict[str, float] = {}
        for s in subunits:
            totals[s.unit_id] = totals.get(s.unit_id, 0.0) + s.importance
        flagged = sorted(uid for uid, tot in totals.items() if tot > weight_cap)
        if flagged:
            report.dropped_unit_ids = flagged
            report.dropped_subunit_ids = sorted(
                s.subunit_id for s in subunits if s.unit_id in set(flagged)
            )
            report.messages.append(
                f"dropped {len(flagged)} units with total subunit weight above "
                f"{weight_cap:g} (and {len(report.dropped_subunit_ids)} subunits)"
            )
            flagged_set = set(flagged)
            units = [u for u in units if u.unit_id not in flagged_set]
            subunits = [s for s in subunits if s.unit_id not in flagged_set]
            if edges is not None:
                edges = SpilloverGraph(
                    tuple((u, s) for u, s in edges.edges if u not in flagged_set)
                )
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
