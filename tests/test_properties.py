"""Property tests: estimates do not depend on input row order or id labels."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdagg.design import DesignConfig, SpilloverGraph, SubunitRecord, UnitRecord
from rdagg.estimators import estimate_lower, estimate_spillover_bilateral, estimate_upper

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
    graph = SpilloverGraph(tuple(edges))
    results = (
        estimate_upper(units, subunits, config),
        estimate_lower(units, subunits, config),
        estimate_spillover_bilateral(graph, units, subunits, config),
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
