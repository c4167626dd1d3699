"""Data model and construction of every aggregated-discontinuity ingredient.

Subunits are discontinuity events (a running variable, an importance weight,
optionally an observed win flag); units carry the outcome. A ``Design``
holds one dataset as numpy arrays, built once:

- units, sorted by id: outcome, analysis weight, ``treatment_override``
  (NaN when absent), control columns by label (NaN where a unit lacks the
  control), and the keys and one integer code array per fixed-effect
  dimension (-1 where a unit lacks a key);
- events, in input order: the owning unit's row, running value,
  importance, ``win_flag`` (NaN when unobserved), attribute columns by
  label (NaN where an event lacks the attribute) and the rank of the
  subunit id;
- optionally the edges of a spillover graph, as unit rows and event indices.
  They come in as an ``Edges`` table: for each side, its distinct ids and
  one code per edge. ``Design.assemble`` looks up each distinct id once and
  gathers the codes. A ``SpilloverGraph`` codes its edges once, and
  ``Design.to_records`` hands its graph the design's own coding.

A design has three constructors: ``io.load_design`` (CSV columns),
``simlab.generate_design`` (the generator's own arrays) and
``Design.from_records`` (the record API). ``Design.to_records`` gives the
records back on request. Events keep their input order, so every sum below
runs in the order the events were given.

Every constructor ends in ``Design.assemble``, the one place where ids are
resolved and checked: it refuses duplicate unit or subunit ids, edges to
unknown units or subunits, and duplicate edges, since an edge given twice
would count its event twice. ``Design.subset`` keeps rows of a design
already through the gate without resolving an id again.
``Design.require_owners`` is the one orphan check, run where every event
must belong to a unit (the partition graph).

Every aggregate is read off one edge index: two integer arrays mapping each
edge to a unit row and to an event. Without a spillover graph the index is
the partition graph, where event j links only to its own unit; with one, an
event may link to many units. Per-event arrays (cutoff indicator, treatment
outcome, close-set membership) are computed once and summed over edges with
``np.bincount``.

Two things are built on that index: the unit exposures (treatment,
shift-share instrument, and the aggregated local-linear controls) and the
stack, one row per (unit, close event) edge, which every stacked estimator
reads.

The local-linear basis q(r, z) = (1, r, r*z), for a running value r and its
cutoff indicator z, is declared here once, with its labels:
``local_linear_basis`` gives its columns, importance-weighted or not, and
``control_columns`` the aggregated ones a control set keeps. The unit
exposures sum s*q(r, z) over each unit's close events; every stacked fit,
the sharp RD and the plotted lines regress on q(r, z) itself. Both levels
control for one basis, and that is why the upper and lower estimates agree.

Construction is pure and deterministic: outputs are ordered by id and depend
only on the inputs.
"""

from __future__ import annotations

import gc
import operator
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import compress, count, repeat
from math import isfinite
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, IntegrityError
from .regress import FE_MAX_ITER, FE_TOL, WEAK_F_THRESHOLD

KERNELS = ("uniform", "triangular")
CUTOFF_RULES = ("geq", "strict_gt")
TIE_POLICIES = ("keep", "drop_exact_zero")
TREATMENT_BASES = ("cutoff_crossing", "win_flag")
CONTROL_SETS = ("all_three_rda", "total_weight_only", "none")
# how many of the aggregated basis columns each control set keeps
_CONTROL_WIDTH = dict(zip(CONTROL_SETS, (3, 1, 0)))

# The labels of q(r, z) = (1, r, r*z) on rows, of its importance-weighted
# sums over a unit's close events, and of the cutoff indicator z itself
BASIS_LABELS = ("intercept", "running", "running_pos")
AGG_LABELS = ("agg_weight", "agg_running", "agg_running_pos")
INTERCEPT = BASIS_LABELS[0]
CROSSING = "crossing"


def local_linear_basis(r: np.ndarray, z: np.ndarray,
                       w: Optional[np.ndarray] = None) -> List[np.ndarray]:
    """The columns of w*q(r, z) for the cutoff indicator z: (w, w*r, (w*r)*z),
    with w = 1 when None.

    The last column is w*r times z, not w times r*z: where w*r overflows, a
    z of 0 makes it NaN, as a sum of s*r*z written left to right does."""
    wr = r if w is None else w * r
    return [np.ones(len(r)) if w is None else w, wr, wr * z]


def control_columns(control_set: str, controls: np.ndarray) -> List[Tuple[str, np.ndarray]]:
    """The labelled aggregated-control columns that ``control_set`` keeps of
    ``controls``, the (n, 3) ``UnitExposures.controls``: 3, 1 or 0 of them."""
    return [(AGG_LABELS[j], controls[:, j]) for j in range(_CONTROL_WIDTH[control_set])]


@dataclass(frozen=True)
class SubunitRecord:
    """One discontinuity event, owned by (or linked to) a unit."""

    subunit_id: str
    unit_id: str
    running: float
    importance: float
    win_flag: Optional[bool] = None
    attributes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isfinite(self.running):
            raise ConfigurationError(f"subunit '{self.subunit_id}': running variable not finite")
        if not (self.importance > 0):
            raise ConfigurationError(f"subunit '{self.subunit_id}': importance must be positive")


@dataclass(frozen=True)
class UnitRecord:
    """One outcome observation at the aggregated level."""

    unit_id: str
    outcome: float
    extra_controls: dict = field(default_factory=dict)
    fe_keys: dict = field(default_factory=dict)
    analysis_weight: float = 1.0
    treatment_override: Optional[float] = None

    def __post_init__(self):
        if self.analysis_weight < 0:
            raise ConfigurationError(f"unit '{self.unit_id}': analysis_weight must be nonnegative")


_OPS = {
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class AttributeFilter:
    """Threshold predicate over a subunit attribute; ``mask`` tests a column.
    A missing attribute (NaN in the column) fails the filter, whatever the
    operator. ``absolute`` compares |value|.
    """

    attribute: str
    op: str
    value: float
    absolute: bool = False

    def __post_init__(self):
        if self.op not in _OPS:
            raise ConfigurationError(f"unknown filter operator '{self.op}'")

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Which entries of an attribute column pass."""
        x = np.abs(values) if self.absolute else values
        return _OPS[self.op](x, self.value) & ~np.isnan(values)

    def describe(self) -> str:
        """Text that ``parse_filter`` reads back to exactly this filter."""
        prefix = "abs:" if self.absolute else ""
        value = f"{self.value:g}"
        if float(value) != self.value:
            value = repr(float(self.value)).removesuffix(".0")
        return f"{prefix}{self.attribute}{self.op}{value}"


def parse_filter(text: str) -> AttributeFilter:
    """Parse 'votes>=20' or 'abs:margin>=2' into an AttributeFilter."""
    body = text.strip()
    absolute = body.startswith("abs:")
    if absolute:
        body = body[4:]
    for op in (">=", "<=", "==", "!=", ">", "<"):
        if op in body:
            name, _, raw = body.partition(op)
            name = name.strip()
            if not name:
                break
            try:
                value = float(raw.strip())
            except ValueError:
                raise ConfigurationError(f"filter '{text}': cannot parse threshold '{raw.strip()}'")
            return AttributeFilter(name, op, value, absolute)
    raise ConfigurationError(f"cannot parse filter '{text}' (expected e.g. 'votes>=20')")


@dataclass(frozen=True)
class DesignConfig:
    """Bandwidth, kernel, cutoff/tie policy, filters, and control selection.

    ``fe_tol`` and ``fe_max_iter`` govern absorbing two or more
    ``fe_dimensions``. The dimension with the most groups is eliminated
    exactly (Abowd, Creecy & Kramarz 2002), so one dimension needs no
    iteration; conjugate gradients solve for the effects of the others. A
    column has converged when its largest weighted group mean of the
    residual is at most ``fe_tol`` times its weighted RMS before
    absorption, and ConvergenceError is raised if ``fe_max_iter``
    conjugate-gradient iterations do not get every column there. The
    iterations run over cells, the distinct combinations of fixed-effect
    keys, not over rows. Each fit codes its cells once, on the units, from
    ``Design.fe_codes``; a stacked fit renumbers the cells of its rows by
    count. The conjugate gradients are preconditioned by the exact
    diagonal of the Schur complement they solve.
    """

    bandwidth: float = 0.1
    kernel: str = "uniform"
    cutoff_rule: str = "geq"
    tie_policy: str = "keep"
    filters: Tuple[AttributeFilter, ...] = ()
    instrument_basis: str = "cutoff_crossing"
    control_set: str = "all_three_rda"
    fe_dimensions: Tuple[str, ...] = ()
    include_intercept: bool = True
    lower_unit_weights: bool = False
    fe_tol: float = FE_TOL
    fe_max_iter: int = FE_MAX_ITER
    weak_f_threshold: float = WEAK_F_THRESHOLD

    def __post_init__(self):
        if not (self.bandwidth > 0):
            raise ConfigurationError("bandwidth must be positive")
        if self.kernel not in KERNELS:
            raise ConfigurationError(f"kernel must be one of {KERNELS}")
        if self.cutoff_rule not in CUTOFF_RULES:
            raise ConfigurationError(f"cutoff_rule must be one of {CUTOFF_RULES}")
        if self.tie_policy not in TIE_POLICIES:
            raise ConfigurationError(f"tie_policy must be one of {TIE_POLICIES}")
        if self.instrument_basis not in TREATMENT_BASES:
            raise ConfigurationError(f"instrument_basis must be one of {TREATMENT_BASES}")
        if self.control_set not in CONTROL_SETS:
            raise ConfigurationError(f"control_set must be one of {CONTROL_SETS}")
        if not all(isinstance(f, AttributeFilter) for f in self.filters):
            raise ConfigurationError(
                "filters must be AttributeFilter instances (see parse_filter)"
            )
        # NaN or a non-positive tolerance would let absorption stop at once
        if not (isfinite(self.fe_tol) and self.fe_tol > 0):
            raise ConfigurationError("fe_tol must be finite and positive")
        if self.fe_max_iter < 1:
            raise ConfigurationError("fe_max_iter must be at least 1")
        if not (isfinite(self.weak_f_threshold) and self.weak_f_threshold >= 0):
            raise ConfigurationError("weak_f_threshold must be finite and nonnegative")


@dataclass(frozen=True)
class SpilloverGraph:
    """Bipartite links from outcome units to intervention subunits.

    A subunit may appear in many units' edge sets; each edge inherits the
    subunit's importance weight. ``edges`` is stored as a tuple of
    (unit id, subunit id) pairs, whatever sequence of pairs is given, so a
    graph is hashable, equals the graph of the same pairs in any container,
    and does not change when the caller's sequence does. ``coded`` is its
    ``Edges`` table, built once on first use; ``Design.to_records`` gives
    the graph its design's own coding, so a design rebuilt from those
    records looks up each id once.
    """

    edges: Tuple[Tuple[str, str], ...]

    def __post_init__(self):
        edges = tuple(map(tuple, self.edges))
        if set(map(len, edges)) - {2}:
            raise ConfigurationError("spillover graph edges must be (unit id, subunit id) pairs")
        object.__setattr__(self, "edges", edges)

    @cached_property
    def coded(self) -> "Edges":
        """The edges as an ``Edges`` table (``Edges.code``)."""
        return Edges.code([unit for unit, _ in self.edges], [sub for _, sub in self.edges])


class _Table:
    """Columns of one length: lists, arrays, or dicts of arrays keyed by label."""

    def __len__(self) -> int:
        # the first column's length (vars() keeps the field order)
        return len(next(iter(vars(self).values())))

    def take(self, rows: np.ndarray):
        """The table on ``rows``, an index array."""
        return replace(self, **{f.name: _pick(getattr(self, f.name), rows) for f in fields(self)})


def _pick(col, rows: np.ndarray):
    """A column, or a dict of columns, on ``rows``. A module-level function,
    so that no closure holds ``rows`` in a reference cycle past the call."""
    if isinstance(col, dict):
        return {label: _pick(c, rows) for label, c in col.items()}
    return col[rows] if isinstance(col, np.ndarray) else [col[i] for i in rows.tolist()]


@dataclass(frozen=True, eq=False)
class Units(_Table):
    """Unit columns. ``controls`` maps a label to its column (NaN where a
    unit lacks the control), ``fe`` a dimension to its keys (None where a
    unit lacks one); ``override`` is NaN where absent."""

    ids: List[str]
    outcome: np.ndarray
    weight: np.ndarray
    override: np.ndarray
    controls: Dict[str, np.ndarray]
    fe: Dict[str, list]


@dataclass(frozen=True, eq=False)
class Events(_Table):
    """Subunit columns. ``win_flag`` is 1, 0 or NaN (unobserved);
    ``attributes`` maps a label to its column (NaN where absent)."""

    ids: List[str]
    unit_ids: List[str]
    running: np.ndarray
    importance: np.ndarray
    win_flag: np.ndarray
    attributes: Dict[str, np.ndarray]

    def attribute(self, label: str) -> np.ndarray:
        """An attribute column; all NaN when no event has the attribute."""
        return self.attributes.get(label, np.full(len(self), np.nan))


@dataclass(frozen=True, eq=False)
class Edges:
    """Spillover graph columns, each side coded: edge k links the unit
    ``unit_ids[unit[k]]`` to the subunit ``subunit_ids[subunit[k]]``. Each
    side holds its distinct ids, which may include ids no edge names, and
    one integer code per edge, so ``Design.assemble`` looks up each id once
    and gathers the codes. ``Edges.code`` builds the table from two id
    columns with one entry per edge."""

    unit_ids: Sequence[str]
    unit: np.ndarray
    subunit_ids: Sequence[str]
    subunit: np.ndarray

    def __len__(self) -> int:
        return len(self.unit)

    @classmethod
    def code(cls, unit_ids: Sequence[str], subunit_ids: Sequence[str]) -> "Edges":
        """The edges linking ``unit_ids[k]`` to ``subunit_ids[k]``, each side's
        distinct ids in order of first appearance."""
        return cls(*_distinct(unit_ids), *_distinct(subunit_ids))


def _floats(values) -> np.ndarray:
    return np.fromiter(values, dtype=np.float64)


def key_codes(keys: list) -> Tuple[np.ndarray, list]:
    """Integer codes of ``keys`` in order of first appearance (-1 for None),
    and the distinct keys in that order."""
    index: dict = {}
    codes = np.array([-1 if k is None else index.setdefault(k, len(index)) for k in keys],
                     dtype=np.intp)
    return codes, list(index)


def _few(ids) -> str:
    """At most five of ``ids``, sorted, as an error message lists them."""
    return repr(sorted(ids)[:5])


def _index(ids: List[str], kind: str) -> dict:
    """The position of each id; raises IntegrityError on duplicate ids."""
    index = dict(zip(ids, range(len(ids))))
    if len(index) != len(ids):
        # the dict keeps a duplicate's last position, so its earlier rows mismatch
        raise IntegrityError(f"duplicate {kind} ids: "
                             f"{_few({i for row, i in enumerate(ids) if index[i] != row})}")
    return index


def _lookup(index: dict, keys: Sequence[str]) -> np.ndarray:
    """The position of each key in ``index``; -1 where it has none."""
    return np.fromiter(map(index.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))


def _distinct(ids: Sequence[str]) -> Tuple[list, np.ndarray]:
    """The distinct ``ids`` in order of first appearance, and the position of
    each id among them, in one pass over the ids: each id maps to the
    position where it first appears, and those positions, which increase,
    are ranked."""
    first: dict = {}
    at = np.fromiter(map(first.setdefault, ids, count()), dtype=np.intp, count=len(ids))
    rank = np.empty(len(ids), dtype=np.intp)
    rank[np.fromiter(first.values(), dtype=np.intp, count=len(first))] = np.arange(len(first))
    return list(first), rank[at]


@dataclass(frozen=True, eq=False)
class Design:
    """One dataset as arrays (see the module docstring): ``units`` sorted by
    id with labels sorted, ``events`` in input order. ``event_unit`` is each
    event's unit row (-1 when its unit id names no unit, which a graph
    allows), ``event_rank`` the rank of its id, ``fe_codes`` the codes of
    each fixed-effect dimension, and ``edge_unit``/``edge_event`` the
    graph's edges, if any."""

    units: Units
    events: Events
    event_unit: np.ndarray
    event_rank: np.ndarray
    fe_codes: Dict[str, np.ndarray]
    edge_unit: Optional[np.ndarray] = None
    edge_event: Optional[np.ndarray] = None

    @classmethod
    def assemble(cls, units: Units, events: Events, edges: Optional[Edges] = None) -> "Design":
        """Sort the units, code the fixed effects, rank the events and
        resolve every id: each event's unit and each edge's endpoints.

        This is the integrity gate of every constructor. It raises
        IntegrityError on duplicate unit ids, on duplicate subunit ids, on
        edges to an unknown unit or subunit and on an edge given twice;
        each message lists at most five sorted ids or (unit, subunit)
        pairs, so it does not depend on row order. An event whose unit id
        names no unit is kept (graph designs and sharp RD have such events);
        ``require_owners`` refuses it where every event must belong to a
        unit."""
        units = units.take(np.array(sorted(range(len(units)), key=units.ids.__getitem__),
                                    dtype=np.intp))
        units = replace(units, controls=dict(sorted(units.controls.items())),
                        fe=dict(sorted(units.fe.items())))
        events = replace(events, attributes=dict(sorted(events.attributes.items())))
        rows, index = _index(units.ids, "unit"), _index(events.ids, "subunit")
        rank = np.empty(len(events), dtype=np.intp)
        rank[sorted(range(len(events)), key=events.ids.__getitem__)] = np.arange(len(events))
        edge_unit = edge_event = None
        if edges is not None:
            edge_unit = _lookup(rows, edges.unit_ids)[edges.unit]
            edge_event = _lookup(index, edges.subunit_ids)[edges.subunit]
            if (edge_unit < 0).any() or (edge_event < 0).any():
                missing = {*map(edges.unit_ids.__getitem__, edges.unit[edge_unit < 0].tolist()),
                           *map(edges.subunit_ids.__getitem__,
                                edges.subunit[edge_event < 0].tolist())}
                raise IntegrityError(f"edges referencing missing endpoints: {_few(missing)}")
            # a repeated edge would count its event twice in the unit's sums
            pairs = np.sort(edge_unit * len(events) + edge_event)
            twice = pairs[1:][pairs[1:] == pairs[:-1]].tolist()
            if twice:
                raise IntegrityError("duplicate edges: " + _few(
                    {(units.ids[i], events.ids[j])
                     for i, j in map(divmod, twice, repeat(len(events)))}))
        return cls(
            units=units,
            events=events,
            event_unit=_lookup(rows, events.unit_ids),
            event_rank=rank,
            fe_codes={dim: key_codes(keys)[0] for dim, keys in units.fe.items()},
            edge_unit=edge_unit,
            edge_event=edge_event,
        )

    @classmethod
    def from_records(cls, units: Sequence[UnitRecord], subunits: Sequence[SubunitRecord],
                     graph: Optional[SpilloverGraph] = None) -> "Design":
        """The design of the record API's units, subunits and graph."""
        controls = {k for u in units for k in u.extra_controls}
        dims = {k for u in units for k in u.fe_keys}
        attributes = {k for s in subunits for k in s.attributes}
        return cls.assemble(
            Units(
                ids=[u.unit_id for u in units],
                outcome=_floats(u.outcome for u in units),
                weight=_floats(u.analysis_weight for u in units),
                override=_floats(np.nan if u.treatment_override is None
                                 else u.treatment_override for u in units),
                controls={c: _floats(u.extra_controls.get(c, np.nan) for u in units)
                          for c in controls},
                fe={d: [u.fe_keys.get(d) for u in units] for d in dims},
            ),
            Events(
                ids=[s.subunit_id for s in subunits],
                unit_ids=[s.unit_id for s in subunits],
                running=_floats(s.running for s in subunits),
                importance=_floats(s.importance for s in subunits),
                win_flag=_floats(np.nan if s.win_flag is None else float(bool(s.win_flag))
                                 for s in subunits),
                attributes={a: _floats(s.attributes.get(a, np.nan) for s in subunits)
                            for a in attributes},
            ),
            None if graph is None else graph.coded,
        )

    def subset(self, units: np.ndarray, events: np.ndarray,
               edges: Optional[np.ndarray] = None) -> "Design":
        """The design on the units, events and edges where the boolean masks
        hold, equal to ``assemble`` on those rows without resolving an id
        again: rows are renumbered by the count of kept rows before them,
        kept events ranked by their old ranks and the fixed effects coded
        over the kept keys. A kept event's unit and a kept edge's endpoints
        must be kept."""
        # the appended -1 is the row of the events of no unit
        unit_row = np.append(np.cumsum(units) - 1, -1)
        kept = self.units.take(np.flatnonzero(units))
        return Design(
            kept, self.events.take(np.flatnonzero(events)),
            unit_row[self.event_unit[events]], np.argsort(np.argsort(self.event_rank[events])),
            {dim: key_codes(keys)[0] for dim, keys in kept.fe.items()},
            None if edges is None else unit_row[self.edge_unit[edges]],
            None if edges is None else np.cumsum(events)[self.edge_event[edges]] - 1,
        )

    def require_owners(self) -> None:
        """Raise IntegrityError unless every event's unit id names a unit."""
        if (self.event_unit < 0).any():
            raise IntegrityError("subunits referencing missing units: "
                                 + _few(compress(self.events.ids, self.event_unit < 0)))

    def to_records(self) -> Tuple[List[UnitRecord], List[SubunitRecord],
                                  Optional[SpilloverGraph]]:
        """Units (sorted by id), subunits (in input order) and the graph, if any."""
        u, e = self.units, self.events
        controls = [(c, col.tolist()) for c, col in u.controls.items()]
        attributes = [(a, col.tolist()) for a, col in e.attributes.items()]
        # The records are acyclic, but the cyclic collector would rescan them
        # again and again while they pile up: a quarter of the time here.
        collecting = gc.isenabled()
        gc.disable()
        try:
            units = [
                UnitRecord(uid, outcome,
                           extra_controls={c: col[i] for c, col in controls if col[i] == col[i]},
                           fe_keys={d: keys[i] for d, keys in u.fe.items()
                                    if keys[i] is not None},
                           analysis_weight=weight,
                           treatment_override=None if override != override else override)
                for i, (uid, outcome, weight, override) in enumerate(zip(
                    u.ids, u.outcome.tolist(), u.weight.tolist(), u.override.tolist()))
            ]
            subunits = [
                SubunitRecord(sid, uid, r, s, win_flag=None if flag != flag else bool(flag),
                              attributes={a: col[j] for a, col in attributes if col[j] == col[j]})
                for j, (sid, uid, r, s, flag) in enumerate(zip(
                    e.ids, e.unit_ids, e.running.tolist(), e.importance.tolist(),
                    e.win_flag.tolist()))
            ]
            graph = None
            if self.edge_unit is not None:
                graph = SpilloverGraph(tuple(zip(
                    map(u.ids.__getitem__, self.edge_unit.tolist()),
                    map(e.ids.__getitem__, self.edge_event.tolist()))))
                # the coding this design holds, in place of coding the pairs again
                object.__setattr__(graph, "coded",
                                   Edges(u.ids, self.edge_unit, e.ids, self.edge_event))
        finally:
            if collecting:
                gc.enable()
        return units, subunits, graph


def cutoff_indicators(r: np.ndarray, cutoff_rule: str) -> np.ndarray:
    return (r >= 0.0).astype(np.float64) if cutoff_rule == "geq" else (r > 0.0).astype(np.float64)


def close_mask(design: Design, config: DesignConfig) -> np.ndarray:
    """Close-set membership of every event: in band, past the tie policy,
    and passing every filter."""
    r = design.events.running
    mask = np.abs(r) <= config.bandwidth
    if config.tie_policy == "drop_exact_zero":
        mask &= r != 0.0
    for f in config.filters:
        mask &= f.mask(design.events.attribute(f.attribute))
    return mask


def kernel_weights(r: np.ndarray, config: DesignConfig) -> np.ndarray:
    """Kernel weight of in-band running values: uniform 1, triangular 1-|r|/h."""
    if config.kernel == "uniform":
        return np.ones(len(r))
    return 1.0 - np.abs(r) / config.bandwidth


@dataclass
class UnitExposures:
    """Aggregates aligned to a fixed unit ordering (sorted by unit_id)."""

    unit_ids: List[str]
    treatment: np.ndarray
    instrument: np.ndarray
    controls: np.ndarray  # sums of s*q(r, z) over close events, columns AGG_LABELS


@dataclass(frozen=True)
class _EdgeIndex:
    """The edge index: edge -> unit row, edge -> event, the per-event
    arrays every aggregate reads, and the positions of the edges to close
    events, in edge order."""

    unit_row: np.ndarray
    event: np.ndarray
    instrument: np.ndarray
    treatment: np.ndarray
    close: np.ndarray
    close_edge: np.ndarray


def _edge_index(design: Design, config: DesignConfig, spillover: bool) -> _EdgeIndex:
    """The edges of the design's graph, or without ``spillover`` the partition
    graph, where edge j is event j linked to its owning unit (which must be
    one of the units)."""
    if spillover:
        if design.edge_unit is None:
            raise ConfigurationError("spillover estimation requires a graph")
        unit_row, event = design.edge_unit, design.edge_event
    else:
        design.require_owners()
        unit_row, event = design.event_unit, np.arange(len(design.events))
    z = cutoff_indicators(design.events.running, config.cutoff_rule)
    t = z
    if config.instrument_basis == "win_flag":
        t = design.events.win_flag
        missing = event[np.isnan(t[event])]
        if missing.size:
            raise ConfigurationError(f"instrument_basis=win_flag but subunit "
                                     f"'{design.events.ids[missing[0]]}' has no win_flag")
    close = close_mask(design, config)
    return _EdgeIndex(unit_row, event, z, t, close, np.flatnonzero(close[event]))


def _unit_sum(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    # bincount gives int64 zeros when no row is given
    return np.bincount(rows, weights=values, minlength=n).astype(np.float64, copy=False)


def _exposures(design: Design, e: _EdgeIndex) -> UnitExposures:
    """Sum each unit's edges: the treatment over all of them, the instrument
    and the importance-weighted basis over close ones, which are gathered
    once. Sums run in edge order."""
    n, events = len(design.units), design.events
    treatment = _unit_sum(e.unit_row, events.importance[e.event] * e.treatment[e.event], n)
    rows, event = e.unit_row[e.close_edge], e.event[e.close_edge]
    s_w, z = events.importance[event], e.instrument[event]
    controls = np.column_stack([_unit_sum(rows, column, n) for column in
                                local_linear_basis(events.running[event], z, s_w)])
    instrument = _unit_sum(rows, s_w * z, n)
    override = ~np.isnan(design.units.override)
    treatment[override] = design.units.override[override]
    return UnitExposures(design.units.ids, treatment, instrument, controls)


def design_exposures(design: Design, config: DesignConfig,
                     spillover: bool = False) -> UnitExposures:
    """Treatment, instrument, and aggregated controls for every unit.

    Without ``spillover``, each subunit contributes to its own unit. With
    it, contributions follow the design's graph and a subunit may reach many
    units. The treatment aggregates over all linked subunits; the instrument
    and the controls aggregate over close ones only. A unit-level
    treatment_override replaces the aggregate for that unit.
    """
    return _exposures(design, _edge_index(design, config, spillover))


# The settings that decide a sample: which events are close, their kernel
# weights and the instrument. The control set, fixed effects, intercept and
# weighting enter only the fit, so one stack serves every config that agrees
# on these.
SAMPLE_SETTINGS = ("bandwidth", "kernel", "cutoff_rule", "tie_policy", "filters",
                   "instrument_basis")


@dataclass(frozen=True)
class Stack:
    """The stacked sample: one row per (unit, close event) edge.

    Rows are ordered by (unit_id, subunit_id). ``unit_row`` indexes
    ``unit_ids`` (every unit, sorted); ``event`` indexes the design's
    events. Each row repeats its unit's outcome and aggregate treatment;
    ``kernel`` is the row's kernel weight. ``n_close_events`` counts close
    events, linked or not. ``exposures`` are the unit aggregates the stack
    was built with.

    A stack also records what it was built from: the design itself, the
    ``spillover`` flag and the config. An estimator given a stack reuses it
    only for that design and flag and a config with the same
    ``SAMPLE_SETTINGS`` (``reuse``); a config that differs only in
    the control set, say, shares it.
    """

    unit_ids: List[str]
    unit_row: np.ndarray
    event: np.ndarray
    running: np.ndarray
    instrument: np.ndarray
    importance: np.ndarray
    kernel: np.ndarray
    outcome: np.ndarray
    treatment: np.ndarray
    n_close_events: int
    exposures: UnitExposures
    design: Design = field(repr=False)
    spillover: bool
    config: DesignConfig

    def reuse(self, design: Design, config: DesignConfig, spillover: bool) -> "Stack":
        """This stack, for a fit on ``design`` under ``config``. Raises
        ConfigurationError unless ``design_stack(design, config, spillover)``
        would build this sample: the same design object, the same flag and
        the same sample settings."""
        if design is not self.design:
            raise ConfigurationError("the stack was built from another design")
        if spillover != self.spillover:
            raise ConfigurationError(f"the stack was built with spillover={self.spillover}")
        differ = [f"{name}={getattr(self.config, name)!r} (not {getattr(config, name)!r})"
                  for name in SAMPLE_SETTINGS
                  if getattr(self.config, name) != getattr(config, name)]
        if differ:
            raise ConfigurationError(f"the stack was built with {', '.join(differ)}")
        return self


def design_stack(design: Design, config: DesignConfig, spillover: bool = False) -> Stack:
    """The stacked sample over the edge index: the design's graph, or
    without ``spillover`` the partition graph (each close event paired with
    its own unit).

    The stack keeps the unit exposures it was built with and records its
    design, flag and config, so that any fit on the same design and flag
    whose config agrees on ``SAMPLE_SETTINGS`` can read it instead of
    building its own (``Stack.reuse``)."""
    e = _edge_index(design, config, spillover)
    exp = _exposures(design, e)
    keep = e.close_edge
    # (unit row, subunit rank) as one int64 key, unique since no edge repeats
    order = e.unit_row[keep].astype(np.int64) * len(design.events) \
        + design.event_rank[e.event[keep]]
    keep = keep[np.argsort(order)]
    unit_row, event = e.unit_row[keep], e.event[keep]
    r = design.events.running[event]
    return Stack(exp.unit_ids, unit_row, event, r, e.instrument[event],
                 design.events.importance[event], kernel_weights(r, config),
                 design.units.outcome[unit_row], exp.treatment[unit_row], int(e.close.sum()), exp,
                 design, spillover, config)
