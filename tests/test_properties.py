"""Property tests: estimates do not depend on input row order, id labels, the
units a control is measured in, or a common rescaling of the analysis
weights; bundles survive a write/load round trip, and the CSV reader builds
the same design as the record API."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdagg.design import Design, DesignConfig, SpilloverGraph, SubunitRecord, UnitRecord
from rdagg.estimators import stacked_iv, upper_iv
from rdagg.io import InputBundle, load_bundle, load_design, write_bundle

REL = 1e-10
# A first stage near zero divides rounding noise into beta: at partial F
# 1e-4 a reordering moved the robust SE by 1.3e-10 relative. The bound
# holds for instruments that are not degenerate.
MIN_PARTIAL_F = 1e-2


def make_bundle(seed, fe):
    """A random bundle with an extra control, analysis weights, an optional
    fixed-effect dimension, and a graph linking each event to its own unit
    and sometimes to one other unit."""
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
                edges.append((f"u{int(rng.integers(0, n_units)):03d}", sid))
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
    data = Design.from_records(units, subunits, SpilloverGraph(tuple(edges)))
    results = (
        upper_iv(data, config),
        stacked_iv(data, config),
        stacked_iv(data, config, spillover=True),
    )
    assume(all(r.first_stage.partial_f > MIN_PARTIAL_F for r in results))
    return [(r.beta, r.robust_se) for r in results]


def assert_same(got, want):
    for (beta, se), (beta0, se0) in zip(got, want):
        assert beta == pytest.approx(beta0, rel=REL)
        assert se == pytest.approx(se0, rel=REL)


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
        assert_same([(r.beta, r.robust_se) for r in got], [(r.beta, r.robust_se) for r in want])


IDS = st.text(alphabet="abcxyz019-_.", min_size=1, max_size=6)
NUMBERS = st.floats(allow_nan=False, allow_infinity=False, width=64)
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def bundles(draw):
    """Random records that write_bundle can write: every unit has the same
    fixed-effect dimensions and controls; attributes are ragged; win_flag
    is blank, 0 or 1; with edges, subunits may name units that do not exist."""
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
        graph = SpilloverGraph(tuple(draw(st.lists(pairs, max_size=15))) if subunit_ids else ())
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
@given(bundle=bundles())
def test_csv_reader_builds_the_record_design(tmp_path_factory, bundle):
    got, report = load_design(*write_files(tmp_path_factory, bundle))
    # the files hold the subunits in id order and the edges sorted
    graph = None if bundle.edges is None else SpilloverGraph(tuple(sorted(bundle.edges.edges)))
    want = Design.from_records(
        bundle.units, sorted(bundle.subunits, key=lambda s: s.subunit_id), graph
    )
    assert report.messages == []
    assert_same_design(got, want)
