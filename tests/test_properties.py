"""Property tests: estimates and their inference blocks do not depend on
input row order, id labels, the units a control is measured in, or a
common rescaling of the analysis weights; bundles survive a write/load round trip, the CSV reader builds
the same design as the record API, the plain split of a CSV text reads it
as csv.reader does, the unit exposures and the stack are the bits of the
reference that masks each column, the units' aggregated controls are the
unit sums of the stack's weighted local-linear basis, and the fixed-effect
cells a fit codes are those the sorting coder gives its rows."""

from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from oracles import reference_exposures, reference_stack, sorted_cells
from rdagg.design import (
    _OPS,
    CUTOFF_RULES,
    KERNELS,
    TIE_POLICIES,
    TREATMENT_BASES,
    AttributeFilter,
    Design,
    DesignConfig,
    Edges,
    SpilloverGraph,
    SubunitRecord,
    UnitRecord,
    _edge_index,
    _exposures,
    design_exposures,
    design_stack,
    local_linear_basis,
    parse_filter,
)
from rdagg import estimators
from rdagg.estimators import collapsed_iv, stacked_iv, upper_iv
from rdagg.cli import main
from rdagg.io import (
    InputBundle,
    _plain_width,
    _read_columns,
    _reader_columns,
    load_bundle,
    load_design,
    write_bundle,
)

REL = 1e-10
# A first stage near zero divides rounding noise into beta: at partial F
# 1e-4 a reordering moved the robust SE by 1.3e-10 relative. The bound
# holds for instruments that are not degenerate.
MIN_PARTIAL_F = 1e-2


def make_bundle(seed, fe):
    """A random bundle with an extra control, analysis weights, an optional
    fixed-effect dimension, and a graph linking each event to its own unit
    and sometimes to one other unit (each link once)."""
    rng = np.random.default_rng(seed)
    n_units = int(rng.integers(20, 41))
    units, subunits, edges = [], [], []
    for i in range(n_units):
        uid = f"u{i:03d}"
        units.append(UnitRecord(
            uid,
            float(rng.normal()),
            extra_controls={"c0": float(rng.normal())},
            fe_keys={"g": f"g{rng.integers(0, 3)}"} if fe else {},
            analysis_weight=float(rng.uniform(0.5, 2.0)),
        ))
        for j in range(int(rng.integers(1, 6))):
            sid = f"{uid}-s{j}"
            subunits.append(SubunitRecord(sid, uid, float(rng.normal()),
                                          float(rng.uniform(0.2, 2.0))))
            edges.append((uid, sid))
            if rng.random() < 0.5:
                other = int(rng.integers(0, n_units - 1))
                edges.append((f"u{other + (other >= i):03d}", sid))
    return units, subunits, edges


def relabel(units, subunits, edges, unit_perm, sub_perm):
    """Rename every unit and subunit id so that their sort order is shuffled."""
    umap = {u.unit_id: f"x{unit_perm[i]:03d}" for i, u in enumerate(units)}
    smap = {s.subunit_id: f"e{sub_perm[j]:04d}" for j, s in enumerate(subunits)}
    units = [UnitRecord(umap[u.unit_id], u.outcome, u.extra_controls, u.fe_keys,
                        u.analysis_weight) for u in units]
    subunits = [SubunitRecord(smap[s.subunit_id], umap[s.unit_id], s.running, s.importance)
                for s in subunits]
    return units, subunits, [(umap[u], smap[s]) for u, s in edges]


def fits(units, subunits, edges, config):
    """Beta, SE and the inference block of the upper, lower and bilateral
    fits, and of the collapsed fit when there are no fixed effects."""
    data = Design.from_records(units, subunits, SpilloverGraph(tuple(edges)))
    results = [
        upper_iv(data, config),
        stacked_iv(data, config),
        stacked_iv(data, config, spillover=True),
    ]
    if not config.fe_dimensions:
        results.append(collapsed_iv(data, config))
    assume(all(r.first_stage.partial_f > MIN_PARTIAL_F for r in results))
    return [(r.beta, r.robust_se, r.inference) for r in results]


def assert_same(got, want):
    for (beta, se, inference), (beta0, se0, inference0) in zip(got, want, strict=True):
        assert beta == pytest.approx(beta0, rel=REL)
        assert se == pytest.approx(se0, rel=REL)
        assert replace(inference, wald_ci=None) == replace(inference0, wald_ci=None)
        assert inference.wald_ci == pytest.approx(inference0.wald_ci, rel=REL)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fe=st.booleans(), data=st.data())
def test_invariant_to_row_order_and_id_labels(seed, fe, data):
    units, subunits, edges = make_bundle(seed, fe)
    config = DesignConfig(bandwidth=0.8, fe_dimensions=("g",) if fe else ())
    want = fits(units, subunits, edges, config)

    shuffled = (
        data.draw(st.permutations(units)),
        data.draw(st.permutations(subunits)),
        data.draw(st.permutations(edges)),
    )
    assert_same(fits(*shuffled, config), want)

    unit_perm = data.draw(st.permutations(range(len(units))))
    sub_perm = data.draw(st.permutations(range(len(subunits))))
    assert_same(fits(*relabel(units, subunits, edges, unit_perm, sub_perm), config), want)

    scale = data.draw(st.sampled_from([1e-6, 1e9]))
    rescaled = [replace(u, extra_controls={"c0": scale * u.extra_controls["c0"]}) for u in units]
    assert_same(fits(rescaled, subunits, edges, config), want)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fe=st.booleans(), scale=st.sampled_from([1e-3, 7.0, 1e6]))
def test_invariant_to_a_common_rescaling_of_analysis_weights(seed, fe, scale):
    # Importance is not such an invariance: the treatment is measured in
    # importance units, so scaling importance by c scales beta and SE by 1/c.
    units, subunits, _ = make_bundle(seed, fe)
    data = Design.from_records(units, subunits)
    scaled = Design.from_records(
        [replace(u, analysis_weight=scale * u.analysis_weight) for u in units], subunits)
    for unit_weights in (False, True):
        config = DesignConfig(bandwidth=0.8, fe_dimensions=("g",) if fe else (),
                              lower_unit_weights=unit_weights)
        want = [upper_iv(data, config), stacked_iv(data, config)]
        assume(all(r.first_stage.partial_f > MIN_PARTIAL_F for r in want))
        got = [upper_iv(scaled, config), stacked_iv(scaled, config)]
        assert_same([(r.beta, r.robust_se, r.inference) for r in got],
                    [(r.beta, r.robust_se, r.inference) for r in want])


# ',' and '"' must be quoted in the CSV files
IDS = st.text(alphabet='abcxyz019-_.,"', min_size=1, max_size=6)
NUMBERS = st.floats(allow_nan=False, allow_infinity=False, width=64)
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def bundles(draw):
    """Random records that write_bundle can write: every unit has the same
    fixed-effect dimensions and controls; attributes are ragged; win_flag
    is blank, 0 or 1; with edges, subunits may name units that do not exist,
    and no link is drawn twice."""
    unit_ids = draw(st.lists(IDS, min_size=1, max_size=8, unique=True))
    dims = draw(st.lists(st.sampled_from(["state", "ind"]), unique=True))
    controls = draw(st.lists(st.sampled_from(["a", "b"]), unique=True))
    units = [
        UnitRecord(
            uid,
            draw(NUMBERS),
            extra_controls={c: draw(NUMBERS) for c in controls},
            fe_keys={d: draw(IDS) for d in dims},
            analysis_weight=draw(st.floats(min_value=0.0, max_value=1e300)),
            treatment_override=draw(st.none() | NUMBERS),
        )
        for uid in unit_ids
    ]
    with_edges = draw(st.booleans())
    owners = st.sampled_from(unit_ids) | (IDS if with_edges else st.nothing())
    subunit_ids = draw(st.lists(IDS, max_size=12, unique=True))
    subunits = [
        SubunitRecord(
            sid,
            draw(owners),
            draw(NUMBERS),
            draw(POSITIVE),
            win_flag=draw(st.sampled_from([None, False, True])),
            attributes=draw(st.dictionaries(st.sampled_from(["votes", "margin"]), NUMBERS)),
        )
        for sid in subunit_ids
    ]
    graph = None
    if with_edges:
        pairs = st.tuples(st.sampled_from(unit_ids), st.sampled_from(subunit_ids or ["?"]))
        graph = SpilloverGraph(
            tuple(draw(st.lists(pairs, max_size=15, unique=True))) if subunit_ids else ())
    return InputBundle(units, subunits, graph)


def write_files(tmp_path_factory, bundle):
    folder = tmp_path_factory.mktemp("bundle")
    paths = [str(folder / name) for name in ("units.csv", "subunits.csv", "edges.csv")]
    write_bundle(bundle, *paths)
    return paths if bundle.edges is not None else paths[:2]


@settings(max_examples=60, deadline=None)
@given(bundle=bundles())
def test_write_load_round_trip_gives_back_equal_records(tmp_path_factory, bundle):
    loaded = load_bundle(*write_files(tmp_path_factory, bundle))
    assert loaded.units == sorted(bundle.units, key=lambda u: u.unit_id)
    assert loaded.subunits == sorted(bundle.subunits, key=lambda s: s.subunit_id)
    if bundle.edges is None:
        assert loaded.edges is None
    else:
        assert loaded.edges.edges == tuple(sorted(bundle.edges.edges))


def assert_same_columns(got, want, name):
    if isinstance(got, dict):
        assert list(got) == list(want), name
        for key in got:
            assert_same_columns(got[key], want[key], (name, key))
    elif got is None or want is None:
        assert got is want, name
    elif isinstance(got, list):
        assert got == want, name
    else:
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want, equal_nan=got.dtype.kind == "f"), name


def assert_same_design(got, want):
    for table in ("units", "events"):
        for f in fields(getattr(got, table)):
            assert_same_columns(getattr(getattr(got, table), f.name),
                                getattr(getattr(want, table), f.name), (table, f.name))
    for f in fields(got):
        if f.name not in ("units", "events"):
            assert_same_columns(getattr(got, f.name), getattr(want, f.name), f.name)


@settings(max_examples=60, deadline=None)
@given(bundle=bundles(), data=st.data())
def test_csv_reader_builds_the_record_design(tmp_path_factory, bundle, data):
    paths = write_files(tmp_path_factory, bundle)
    got, report = load_design(*paths)
    # the files hold the subunits in id order and the edges sorted
    graph = None if bundle.edges is None else SpilloverGraph(tuple(sorted(bundle.edges.edges)))
    want = Design.from_records(
        bundle.units, sorted(bundle.subunits, key=lambda s: s.subunit_id), graph
    )
    assert report.messages == []
    assert_same_design(got, want)

    # a weight cap keeps the rows that Design.assemble would build from
    totals = np.bincount(got.event_unit + 1, weights=got.events.importance,
                         minlength=len(got.units) + 1)[1:]
    cap = data.draw(st.sampled_from(totals.tolist()))
    capped, _ = load_design(*paths, weight_cap=cap)
    units = totals <= cap
    events = (got.event_unit < 0) | units[got.event_unit]
    edges = None
    if got.edge_unit is not None:
        keep = np.flatnonzero(units[got.edge_unit] & events[got.edge_event]).tolist()
        edges = Edges.code([got.units.ids[got.edge_unit[k]] for k in keep],
                           [got.events.ids[got.edge_event[k]] for k in keep])
    assert_same_design(capped, Design.assemble(got.units.take(np.flatnonzero(units)),
                                               got.events.take(np.flatnonzero(events)), edges))


@settings(max_examples=200, deadline=None)
@given(attribute=st.sampled_from(["votes", "margin"]),
       op=st.sampled_from([">=", "<=", ">", "<", "==", "!="]),
       value=NUMBERS, absolute=st.booleans())
def test_filter_description_parses_back_to_the_filter(attribute, op, value, absolute):
    # the manifest echoes filters by describe(), so it must not round the threshold
    f = AttributeFilter(attribute, op, value, absolute)
    assert parse_filter(f.describe()) == f


def drawn_design(bundle, data):
    """The bundle's design, a drawn config and whether to follow the graph:
    with and without a graph, overrides, filters, either kernel, either
    instrument basis, either tie policy, empty close sets and units with no
    events."""
    design = Design.from_records(bundle.units, bundle.subunits, bundle.edges)
    filters = st.builds(AttributeFilter, st.sampled_from(["votes", "margin"]),
                        st.sampled_from(sorted(_OPS)), NUMBERS, st.booleans())
    config = DesignConfig(
        bandwidth=data.draw(st.sampled_from([1e-300, 0.5, 2.0, 1e300])),
        kernel=data.draw(st.sampled_from(KERNELS)),
        cutoff_rule=data.draw(st.sampled_from(CUTOFF_RULES)),
        tie_policy=data.draw(st.sampled_from(TIE_POLICIES)),
        filters=tuple(data.draw(st.lists(filters, max_size=2))),
        instrument_basis=data.draw(st.sampled_from(TREATMENT_BASES)),
    )
    if config.instrument_basis == "win_flag":
        # the basis refuses an event without a flag
        flags = design.events.win_flag
        design = replace(design, events=replace(design.events, win_flag=np.where(
            np.isnan(flags), 1.0, flags)))
    # the partition graph needs every event's unit
    spillover = bundle.edges is not None and (
        data.draw(st.booleans()) or bool((design.event_unit < 0).any()))
    return design, config, spillover


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(bundle=bundles(), data=st.data())
def test_exposures_are_the_bits_of_the_masked_reference(bundle, data):
    design, config, spillover = drawn_design(bundle, data)
    index = _edge_index(design, config, spillover)
    with np.errstate(over="ignore", invalid="ignore"):  # drawn values reach 1e300
        got, wants = _exposures(design, index), reference_exposures(design, index)
    for column, want in zip((got.treatment, got.instrument, got.controls), wants):
        assert_same_bits(column, want)


@settings(max_examples=200, deadline=None)
@given(bundle=bundles(), data=st.data())
def test_stack_is_the_bits_of_the_masked_reference(bundle, data):
    design, config, spillover = drawn_design(bundle, data)
    with np.errstate(over="ignore", invalid="ignore"):  # drawn values reach 1e300
        stack = design_stack(design, config, spillover)
        *wants, n_close = reference_stack(design, _edge_index(design, config, spillover),
                                          config.kernel, config.bandwidth)
    for column, want in zip((stack.unit_row, stack.event, stack.running, stack.instrument,
                             stack.importance, stack.kernel, stack.outcome,
                             stack.treatment), wants):
        assert_same_bits(column, want)
    assert stack.n_close_events == n_close


@settings(max_examples=200, deadline=None)
@given(bundle=bundles(), data=st.data())
def test_aggregated_controls_are_the_unit_sums_of_the_stacked_basis(bundle, data):
    """The upper level's controls are the sums, over each unit's stacked
    rows, of q(r, z) weighted as the lower level weights the rows under the
    uniform kernel. The sums run in another order, so they agree to a
    rounding bound on the sum of absolute terms wherever that is finite."""
    design, config, spillover = drawn_design(bundle, data)
    config = replace(config, kernel="uniform")
    with np.errstate(over="ignore", invalid="ignore"):  # drawn values reach 1e300
        got = design_exposures(design, config, spillover).controls
        stack = design_stack(design, config, spillover)
        basis = local_linear_basis(stack.running, stack.instrument,
                                   stack.importance * stack.kernel)

        def unit_sums(columns):
            return np.column_stack([np.bincount(stack.unit_row, weights=c, minlength=len(got))
                                    for c in columns]).reshape(got.shape)

        want, scale = unit_sums(basis), unit_sums(map(np.abs, basis))
    finite = np.isfinite(scale)
    event(f"spillover: {spillover}; finite sums: {finite.all()}")
    assert (np.abs(got[finite] - want[finite]) <= 1e-12 * scale[finite]).all()


DIGITS = "0123456789"
# what str.strip removes, ASCII and not; "\u2028" also ends a line for
# str.splitlines, but not for a file read with newline=""
STRIPPED = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003\u2028"
# what csv.reader reads otherwise than a split at "," and "\n"
SPECIAL = ',"\r\n\x00'


@st.composite
def csv_texts(draw):
    """Texts under a header of width 1 to 4: rows of the header's width,
    ragged rows, blank and whitespace-only lines, "\\n" or "\\r\\n" line
    ends, with and without a last line end, and header-only files. A wild
    text draws its cells from the special characters too."""
    wild = draw(st.booleans())
    cells = st.text(st.sampled_from(DIGITS + STRIPPED + (SPECIAL if wild else "")), max_size=3)
    width = draw(st.integers(1, 4))
    lines = [",".join(draw(st.just(f"h{i}") | cells) for i in range(width))]
    kinds = ["row", "ragged", "blank", "space"] if wild else ["row"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=5)):
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.text(st.sampled_from(STRIPPED), min_size=1, max_size=2)))
        else:
            n = width if kind == "row" else draw(st.sampled_from([width - 1, width + 1]))
            lines.append(",".join(draw(cells) for _ in range(n)))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


@settings(max_examples=500, deadline=None)
@given(text=csv_texts())
def test_plain_split_reads_as_csv_reader_or_declines(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    plain = bool(_plain_width(text.encode("utf-8")))
    event(f"plain: {plain}")
    if plain:
        header, columns, lines = _reader_columns(text, str(path))
        got = _read_columns(str(path))
        assert (got[0], got[1], list(got[2])) == (header, columns, list(lines))


def test_crlf_bundle_and_its_lf_twin_read_and_estimate_alike(tmp_path):
    """A bundle with "\\r\\n" line ends takes the csv.reader path and its
    "\\n" twin the plain split; both give the same design and result."""
    units, subunits, _ = make_bundle(3, fe=True)
    designs, results = [], []
    for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
        folder = tmp_path / name
        folder.mkdir()
        paths = [str(folder / "units.csv"), str(folder / "subunits.csv")]
        write_bundle(InputBundle(units, subunits), *paths)
        for path in paths:
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read().replace("\n", newline)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert bool(_plain_width(text.encode("utf-8"))) is (newline == "\n")
        designs.append(load_design(*paths)[0])
        out = folder / "out"
        assert main(["estimate-upper", "--units", paths[0], "--subunits", paths[1],
                     "--bandwidth", "0.8", "--out", str(out)]) == 0
        results.append((out / "result.json").read_bytes())
    assert_same_design(*designs)
    assert results[0] == results[1]


class _Handed(Exception):
    """Raised by the stand-in solve once it has the cells a fit hands it."""


def handed_cells(fit, *args, **kwargs):
    """The cells that ``fit`` hands to the fixed-effect solve."""
    seen = []

    def solve(columns, cells, *rest, **options):
        seen.append(cells)
        raise _Handed

    with mock.patch.object(estimators, "absorb_cells", solve), pytest.raises(_Handed):
        fit(*args, **kwargs)
    return seen[0]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_dims=st.integers(1, 3),
       bandwidth=st.sampled_from([0.2, 0.7, 3.0]), spillover=st.booleans())
def test_fit_cells_are_the_sorted_coding_of_their_rows(seed, n_dims, bandwidth, spillover):
    """The cells and per-dimension codes a fit hands to the solve, coded
    once on the units and, for a stacked fit, renumbered by count on its
    rows, equal bit for bit the sorted coding (``sorted_cells``) of
    the unit codes at the fit's rows: the units for the upper fit, the
    stack's unit rows for the stacked one."""
    units, subunits, edges = make_bundle(seed, fe=False)
    rng = np.random.default_rng(seed)
    # keys out of sorted order, and about three units per key, so that cells
    # and groups repeat and some drop out of a stack
    sizes = rng.integers(1, 13, n_dims)
    units = [replace(u, fe_keys={f"d{d}": f"k{(7 * int(rng.integers(0, g))) % 13:02d}"
                                 for d, g in enumerate(sizes)}) for u in units]
    design = Design.from_records(units, subunits, SpilloverGraph(tuple(edges)))
    config = DesignConfig(bandwidth=bandwidth, fe_dimensions=tuple(sorted(design.fe_codes)))
    codes = [design.fe_codes[d] for d in config.fe_dimensions]
    stack = design_stack(design, config, spillover)
    assume(stack.unit_row.size)
    for fit, args, rows in ((upper_iv, (design, config, spillover), None),
                            (stacked_iv, (design, config, spillover), stack.unit_row)):
        cell, coded = handed_cells(fit, *args)
        want_cell, want_coded = sorted_cells([c if rows is None else c[rows] for c in codes])
        assert cell.dtype == want_cell.dtype and np.array_equal(cell, want_cell)
        assert len(coded) == len(want_coded)
        for (got, groups), (want, want_groups) in zip(coded, want_coded):
            assert groups == want_groups
            assert got.dtype == want.dtype and np.array_equal(got, want)
