"""Data model and construction of every aggregated-discontinuity ingredient.

Subunits are discontinuity events (a running variable, an importance weight,
optionally an observed win flag); units carry the outcome. Every aggregate
is read off one edge index: two integer arrays mapping each edge to a unit
row and to an event. Without a spillover graph the index is the partition
graph, where event j links only to its own unit; with one, an event may link
to many units. Per-event arrays (running value, importance, cutoff
indicator, treatment outcome, close-set membership) are computed once and
summed over edges with ``np.bincount``.

Two things are built on that index: the unit exposures (treatment,
shift-share instrument, and the three aggregated local-linear controls) and
the stack, one row per (unit, close event) edge, which every stacked
estimator reads.

Construction is pure and deterministic: outputs are ordered by id and depend
only on the inputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, IntegrityError

KERNELS = ("uniform", "triangular")
CUTOFF_RULES = ("geq", "strict_gt")
TIE_POLICIES = ("keep", "drop_exact_zero")
TREATMENT_BASES = ("cutoff_crossing", "win_flag")
CONTROL_SETS = ("all_three_rda", "total_weight_only", "none")

AGG_WEIGHT = "agg_weight"
AGG_RUNNING = "agg_running"
AGG_RUNNING_POS = "agg_running_pos"


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
        if not np.isfinite(self.running):
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
    """Threshold predicate over a subunit attribute; callable on a record.

    A missing attribute fails the filter. ``absolute`` compares |value|.
    """

    attribute: str
    op: str
    value: float
    absolute: bool = False

    def __post_init__(self):
        if self.op not in _OPS:
            raise ConfigurationError(f"unknown filter operator '{self.op}'")

    def __call__(self, subunit: SubunitRecord) -> bool:
        raw = subunit.attributes.get(self.attribute)
        if raw is None:
            return False
        x = abs(float(raw)) if self.absolute else float(raw)
        return bool(_OPS[self.op](x, self.value))

    def describe(self) -> str:
        prefix = "abs:" if self.absolute else ""
        return f"{prefix}{self.attribute}{self.op}{self.value:g}"


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
    """Bandwidth, kernel, cutoff/tie policy, filters, and control selection."""

    bandwidth: float = 0.1
    kernel: str = "uniform"
    cutoff_rule: str = "geq"
    tie_policy: str = "keep"
    filters: Tuple[Callable[[SubunitRecord], bool], ...] = ()
    instrument_basis: str = "cutoff_crossing"
    control_set: str = "all_three_rda"
    fe_dimensions: Tuple[str, ...] = ()
    include_intercept: bool = True
    lower_unit_weights: bool = False
    fe_tol: float = 1e-10
    fe_max_iter: int = 10_000
    weak_f_threshold: float = 10.0

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


@dataclass(frozen=True)
class SpilloverGraph:
    """Bipartite links from outcome units to intervention subunits.

    A subunit may appear in many units' edge sets; each edge inherits the
    subunit's importance weight.
    """

    edges: Tuple[Tuple[str, str], ...]


def partition_graph(subunits: Sequence[SubunitRecord]) -> SpilloverGraph:
    """The graph linking every subunit only to its own unit."""
    return SpilloverGraph(tuple((s.unit_id, s.subunit_id) for s in subunits))


def running_values(subunits: Sequence[SubunitRecord]) -> np.ndarray:
    return np.fromiter((s.running for s in subunits), dtype=np.float64, count=len(subunits))


def importance_values(subunits: Sequence[SubunitRecord]) -> np.ndarray:
    return np.fromiter((s.importance for s in subunits), dtype=np.float64, count=len(subunits))


def cutoff_indicators(r: np.ndarray, cutoff_rule: str) -> np.ndarray:
    return (r >= 0.0).astype(np.float64) if cutoff_rule == "geq" else (r > 0.0).astype(np.float64)


def close_mask(
    subunits: Sequence[SubunitRecord], r: np.ndarray, config: DesignConfig
) -> np.ndarray:
    """Vectorized close-set membership; filters fall back to per-record calls."""
    mask = np.abs(r) <= config.bandwidth
    if config.tie_policy == "drop_exact_zero":
        mask &= r != 0.0
    if config.filters:
        for i in np.flatnonzero(mask):
            s = subunits[i]
            if not all(predicate(s) for predicate in config.filters):
                mask[i] = False
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
    controls: np.ndarray  # columns: total weight, sum s*r, sum s*r_plus


@dataclass(frozen=True)
class _EdgeIndex:
    """The edge index: units sorted by id, edge -> unit row, edge -> event,
    and the per-event arrays every aggregate reads."""

    order: List[UnitRecord]
    unit_row: np.ndarray
    event: np.ndarray
    running: np.ndarray
    importance: np.ndarray
    instrument: np.ndarray
    treatment: np.ndarray
    close: np.ndarray


def _edge_index(
    units: Sequence[UnitRecord],
    subunits: Sequence[SubunitRecord],
    config: DesignConfig,
    graph: Optional[SpilloverGraph],
) -> _EdgeIndex:
    """Resolve records (and a graph) into the edge index.

    Without a graph, edge j is event j linked to its owning unit. Dangling
    references raise.
    """
    order = sorted(units, key=lambda u: u.unit_id)
    uindex = {u.unit_id: i for i, u in enumerate(order)}
    if len(uindex) != len(order):
        raise IntegrityError("duplicate unit ids")
    if graph is None:
        for s in subunits:
            if s.unit_id not in uindex:
                raise IntegrityError(
                    f"subunit '{s.subunit_id}' references unknown unit '{s.unit_id}'"
                )
        unit_row = np.fromiter(
            (uindex[s.unit_id] for s in subunits), dtype=np.intp, count=len(subunits)
        )
        event = np.arange(len(subunits))
    else:
        sindex = {s.subunit_id: j for j, s in enumerate(subunits)}
        if len(sindex) != len(subunits):
            raise IntegrityError("duplicate subunit ids")
        for unit_id, subunit_id in graph.edges:
            if unit_id not in uindex:
                raise IntegrityError(f"edge references unknown unit '{unit_id}'")
            if subunit_id not in sindex:
                raise IntegrityError(f"edge references unknown subunit '{subunit_id}'")
        unit_row = np.array([uindex[u] for u, _ in graph.edges], dtype=np.intp)
        event = np.array([sindex[s] for _, s in graph.edges], dtype=np.intp)

    r = running_values(subunits)
    z = cutoff_indicators(r, config.cutoff_rule)
    t = z
    if config.instrument_basis == "win_flag":
        t = np.array([np.nan if s.win_flag is None else float(bool(s.win_flag))
                      for s in subunits])
        missing = event[np.isnan(t[event])]
        if missing.size:
            raise ConfigurationError(
                f"instrument_basis=win_flag but subunit '{subunits[missing[0]].subunit_id}' "
                f"has no win_flag"
            )
    return _EdgeIndex(
        order, unit_row, event, r, importance_values(subunits), z, t,
        close_mask(subunits, r, config),
    )


def _unit_sum(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    # bincount gives int64 zeros when no row is given
    return np.bincount(rows, weights=values, minlength=n).astype(np.float64, copy=False)


def _exposures(e: _EdgeIndex) -> UnitExposures:
    """Sum each unit's edges: the treatment over all of them, the instrument
    and the controls over close ones. Sums run in edge order."""
    n = len(e.order)
    s_w, r, z = e.importance[e.event], e.running[e.event], e.instrument[e.event]
    close = e.close[e.event]
    rows = e.unit_row[close]

    def close_sum(values):
        return _unit_sum(rows, values[close], n)

    treatment = _unit_sum(e.unit_row, s_w * e.treatment[e.event], n)
    instrument = close_sum(s_w * z)
    controls = np.column_stack([close_sum(s_w), close_sum(s_w * r), close_sum(s_w * r * z)])
    for i, u in enumerate(e.order):
        if u.treatment_override is not None:
            treatment[i] = float(u.treatment_override)
    return UnitExposures([u.unit_id for u in e.order], treatment, instrument, controls)


def unit_exposures(
    units: Sequence[UnitRecord],
    subunits: Sequence[SubunitRecord],
    config: DesignConfig,
    graph: Optional[SpilloverGraph] = None,
) -> UnitExposures:
    """Treatment, instrument, and aggregated controls for every unit.

    Without a graph, each subunit contributes to its own unit. With a graph,
    contributions follow the edges and a subunit may reach many units. The
    treatment aggregates over all linked subunits; the instrument and the
    controls aggregate over close ones only. A unit-level treatment_override
    replaces the aggregate for that unit.
    """
    return _exposures(_edge_index(units, subunits, config, graph))


@dataclass(frozen=True)
class Stack:
    """The stacked sample: one row per (unit, close event) edge.

    Rows are ordered by (unit_id, subunit_id). ``unit_row`` indexes
    ``unit_ids`` (every unit, sorted); ``event`` indexes the subunit
    sequence the stack was built from. Each row repeats its unit's outcome
    and aggregate treatment; ``kernel`` is the row's kernel weight.
    ``n_close_events`` counts close events, linked or not. ``exposures``
    are the unit aggregates the stack was built with.
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


def build_stack(
    units: Sequence[UnitRecord],
    subunits: Sequence[SubunitRecord],
    config: DesignConfig,
    graph: Optional[SpilloverGraph] = None,
) -> Stack:
    """The stacked sample over the edge index; without a graph, the partition
    graph (each close event paired with its own unit)."""
    e = _edge_index(units, subunits, config, graph)
    exp = _exposures(e)
    keep = np.flatnonzero(e.close[e.event])
    sids = np.array([subunits[j].subunit_id for j in e.event[keep].tolist()])
    keep = keep[np.lexsort((sids, e.unit_row[keep]))]
    unit_row, event = e.unit_row[keep], e.event[keep]
    r = e.running[event]
    return Stack(
        unit_ids=exp.unit_ids,
        unit_row=unit_row,
        event=event,
        running=r,
        instrument=e.instrument[event],
        importance=e.importance[event],
        kernel=kernel_weights(r, config),
        outcome=np.array([u.outcome for u in e.order])[unit_row],
        treatment=exp.treatment[unit_row],
        n_close_events=int(e.close.sum()),
        exposures=exp,
    )
