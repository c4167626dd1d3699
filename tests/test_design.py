"""Close sets, instruments, aggregated controls, stacks, and spillover graphs."""

import gc
import weakref

import numpy as np
import pytest

from oracles import dense_tsls
from rdagg.design import (
    AttributeFilter,
    Design,
    DesignConfig,
    SpilloverGraph,
    SubunitRecord,
    UnitRecord,
    design_exposures,
    design_stack,
    kernel_weights,
    parse_filter,
)
from rdagg.errors import ConfigurationError, IntegrityError
from rdagg.estimators import collapsed_iv, upper_iv


def sub(sid, uid, r, s=1.0, win=None, **attrs):
    return SubunitRecord(sid, uid, r, s, win_flag=win, attributes=attrs)


def unit(uid, y=0.0, **kw):
    return UnitRecord(uid, y, **kw)


def close_set(subs, cfg):
    """unit_id -> its close subunits, read off the stack's rows."""
    units = [unit(uid) for uid in sorted({s.unit_id for s in subs})]
    stack = design_stack(Design.from_records(units, subs), cfg)
    got = {}
    for row, j in zip(stack.unit_row, stack.event):
        got.setdefault(stack.unit_ids[row], []).append(subs[j])
    return got


def build_instrument(units, subs, cfg):
    exp = design_exposures(Design.from_records(units, subs), cfg)
    return dict(zip(exp.unit_ids, exp.instrument.tolist()))


def build_rda_controls(units, subs, cfg):
    exp = design_exposures(Design.from_records(units, subs), cfg)
    return {uid: tuple(row) for uid, row in zip(exp.unit_ids, exp.controls.tolist())}


def aggregate_treatment(units, subs, cfg):
    exp = design_exposures(Design.from_records(units, subs), cfg)
    return dict(zip(exp.unit_ids, exp.treatment.tolist()))


def build_spillover_exposure(graph, subs, units, cfg):
    exp = design_exposures(Design.from_records(units, subs, graph), cfg, spillover=True)
    return {
        uid: (x, z, tuple(q))
        for uid, x, z, q in zip(exp.unit_ids, exp.treatment.tolist(),
                                exp.instrument.tolist(), exp.controls.tolist())
    }


class TestCloseSet:
    def test_bandwidth_selection(self):
        subs = [sub("a", "u", -0.05), sub("b", "u", 0.03), sub("c", "u", 0.50)]
        got = close_set(subs, DesignConfig(bandwidth=0.1))
        assert [s.subunit_id for s in got["u"]] == ["a", "b"]

    def test_filter_excludes(self):
        subs = [sub("a", "u", 0.03, votes=15.0), sub("b", "u", 0.05, votes=30.0)]
        cfg = DesignConfig(bandwidth=0.1, filters=(parse_filter("votes>=20"),))
        got = close_set(subs, cfg)
        assert [s.subunit_id for s in got["u"]] == ["b"]

    def test_application_style_rules(self):
        # 10pp band, at least 20 votes, margin of at least 2 votes, ties out
        cfg = DesignConfig(
            bandwidth=0.10,
            tie_policy="drop_exact_zero",
            filters=(parse_filter("votes>=20"), parse_filter("abs:margin>=2")),
        )
        subs = [
            sub("in", "u", 0.04, votes=40.0, margin=4.0),
            sub("tie", "u", 0.0, votes=40.0, margin=0.0),
            sub("one_vote", "u", 0.02, votes=40.0, margin=1.0),
            sub("small", "u", 0.02, votes=10.0, margin=2.0),
            sub("far", "u", 0.25, votes=40.0, margin=10.0),
        ]
        got = close_set(subs, cfg)
        assert [s.subunit_id for s in got["u"]] == ["in"]

    def test_boundary_included(self):
        subs = [sub("edge", "u", 0.1)]
        assert "u" in close_set(subs, DesignConfig(bandwidth=0.1))

    def test_monotone_nesting(self):
        rng = np.random.default_rng(0)
        subs = [sub(f"s{i}", "u", float(rng.normal())) for i in range(100)]
        prev = None
        for h in (1.5, 1.0, 0.5, 0.2):
            ids = {s.subunit_id for s in close_set(subs, DesignConfig(bandwidth=h)).get("u", [])}
            if prev is not None:
                assert ids <= prev
            prev = ids


class TestInstrument:
    def test_basic_sum(self):
        subs = [sub("a", "u", 0.03, 1 / 3), sub("b", "u", -0.05, 1 / 3)]
        got = build_instrument([unit("u")], subs, DesignConfig(bandwidth=0.1))
        assert got["u"] == pytest.approx(1 / 3)

    def test_empty_close_set_gets_zero_and_stays(self):
        subs = [sub("a", "u1", 5.0)]
        got = build_instrument([unit("u1"), unit("u2")], subs, DesignConfig(bandwidth=0.1))
        assert got == {"u1": 0.0, "u2": 0.0}

    def test_all_above_with_unit_total(self):
        subs = [sub(f"s{i}", "u", 0.01 * (i + 1), 0.25) for i in range(4)]
        got = build_instrument([unit("u")], subs, DesignConfig(bandwidth=0.1))
        assert got["u"] == pytest.approx(1.0)

    def test_triangular_kernel_rejected(self):
        with pytest.raises(ConfigurationError, match="uniform"):
            upper_iv(Design.from_records([unit("u")], [sub("a", "u", 0.0)]),
                     DesignConfig(kernel="triangular"))

    def test_bounds_and_treatment_dominance(self):
        rng = np.random.default_rng(1)
        units = [unit(f"u{i}") for i in range(20)]
        subs = []
        for i in range(20):
            for j in range(int(rng.integers(1, 6))):
                subs.append(sub(f"u{i}-s{j}", f"u{i}", float(rng.normal()), float(rng.uniform(0.1, 2))))
        cfg = DesignConfig(bandwidth=0.7)
        z = build_instrument(units, subs, cfg)
        x = aggregate_treatment(units, subs, cfg)
        q = build_rda_controls(units, subs, cfg)
        for uid in z:
            assert 0.0 <= z[uid] <= q[uid][0] + 1e-12
            assert z[uid] <= x[uid] + 1e-12
            assert abs(q[uid][1]) <= cfg.bandwidth * q[uid][0] + 1e-12
            assert -1e-12 <= q[uid][2] <= cfg.bandwidth * q[uid][0] + 1e-12

    def test_importance_never_renormalized(self):
        subs = [sub("a", "u", 0.05, 2.0), sub("b", "u", 0.01, 3.0)]
        got = build_instrument([unit("u")], subs, DesignConfig(bandwidth=0.1))
        assert got["u"] == pytest.approx(5.0)
        scaled = [sub("a", "u", 0.05, 6.0), sub("b", "u", 0.01, 9.0)]
        got3 = build_instrument([unit("u")], scaled, DesignConfig(bandwidth=0.1))
        assert got3["u"] == pytest.approx(15.0)


class TestRdaControls:
    def test_direct_arithmetic(self):
        subs = [sub("a", "u", 0.03, 1 / 3), sub("b", "u", -0.05, 1 / 3)]
        got = build_rda_controls([unit("u")], subs, DesignConfig(bandwidth=0.1))
        total, agg_r, agg_rp = got["u"]
        assert total == pytest.approx(2 / 3)
        assert agg_r == pytest.approx(-0.02 / 3)
        assert agg_rp == pytest.approx(0.01)

    def test_empty_close_set(self):
        got = build_rda_controls([unit("u")], [sub("a", "u", 9.0)], DesignConfig())
        assert got["u"] == (0.0, 0.0, 0.0)

    def test_all_at_zero_under_geq(self):
        subs = [sub("a", "u", 0.0, 0.5), sub("b", "u", 0.0, 0.25)]
        got = build_rda_controls([unit("u")], subs, DesignConfig(cutoff_rule="geq"))
        assert got["u"] == pytest.approx((0.75, 0.0, 0.0))


class TestAggregateTreatment:
    def test_share_of_winners(self):
        subs = [sub(f"s{i}", "u", r, 0.2) for i, r in enumerate([0.4, 0.2, 0.1, -0.3, -0.6])]
        got = aggregate_treatment([unit("u")], subs, DesignConfig())
        assert got["u"] == pytest.approx(0.6)

    def test_uses_all_subunits_not_just_close(self):
        subs = [sub("near", "u", 0.05, 0.5), sub("far", "u", 3.0, 0.5)]
        got = aggregate_treatment([unit("u")], subs, DesignConfig(bandwidth=0.1))
        assert got["u"] == pytest.approx(1.0)

    def test_win_flag_reversal(self):
        subs = [sub("a", "u", 0.01, 1.0, win=False)]
        cfg = DesignConfig(instrument_basis="win_flag")
        assert aggregate_treatment([unit("u")], subs, cfg)["u"] == 0.0
        # the instrument still follows the cutoff rule
        assert build_instrument([unit("u")], subs, cfg)["u"] == 1.0

    def test_missing_win_flag_names_subunit(self):
        subs = [sub("noflag", "u", 0.01, 1.0)]
        with pytest.raises(ConfigurationError, match="noflag"):
            aggregate_treatment([unit("u")], subs, DesignConfig(instrument_basis="win_flag"))

    def test_override_wins(self):
        subs = [sub("a", "u", 0.3, 1.0)]
        got = aggregate_treatment([unit("u", treatment_override=0.024)], subs, DesignConfig())
        assert got["u"] == 0.024

    def test_override_without_subunits_or_close_events(self):
        for subs in ([], [sub("far", "u", 5.0, 1.0)]):
            exp = design_exposures(Design.from_records([unit("u", treatment_override=0.5)], subs),
                                   DesignConfig())
            assert exp.treatment[0] == 0.5
            assert exp.instrument.dtype == exp.controls.dtype == np.float64

    def test_strict_rule_excludes_zero(self):
        subs = [sub("a", "u", 0.0, 1.0)]
        assert aggregate_treatment([unit("u")], subs, DesignConfig(cutoff_rule="geq"))["u"] == 1.0
        assert aggregate_treatment([unit("u")], subs, DesignConfig(cutoff_rule="strict_gt"))["u"] == 0.0


class TestStack:
    def make_data(self):
        units = [unit("u1", 1.0), unit("u2", 2.0), unit("u3", 3.0)]
        subs = [
            sub("u1-a", "u1", 0.05, 0.5),
            sub("u1-b", "u1", -0.02, 0.5),
            sub("u2-a", "u2", 2.0, 1.0),
            sub("u3-a", "u3", 0.01, 1.0),
        ]
        return units, subs

    def test_row_count_and_absent_unit(self):
        units, subs = self.make_data()
        stack = design_stack(Design.from_records(units, subs), DesignConfig(bandwidth=0.1))
        assert len(stack.event) == 3
        assert {stack.unit_ids[i] for i in stack.unit_row} == {"u1", "u3"}

    def test_rows_copy_unit_values(self):
        units, subs = self.make_data()
        members = close_set(subs, DesignConfig(bandwidth=0.1))
        x = aggregate_treatment(units, subs, DesignConfig(bandwidth=0.1))
        stack = design_stack(Design.from_records(units, subs), DesignConfig(bandwidth=0.1))
        for k, i in enumerate(stack.unit_row):
            uid = stack.unit_ids[i]
            owner = next(u for u in units if u.unit_id == uid)
            assert stack.outcome[k] == owner.outcome
            assert stack.treatment[k] == x[uid]
            assert abs(stack.running[k]) <= 0.1
            assert stack.instrument[k] == (1.0 if stack.running[k] >= 0 else 0.0)
        total = sum(len(v) for v in members.values())
        assert total == 3

    def test_uniform_kernel_weights_are_one(self):
        units, subs = self.make_data()
        stack = design_stack(Design.from_records(units, subs), DesignConfig(bandwidth=0.1))
        assert all(w == 1.0 for w in stack.kernel)

    def test_multiset_matches_close_set(self):
        rng = np.random.default_rng(2)
        units = [unit(f"u{i}") for i in range(15)]
        subs = [
            sub(f"u{i}-s{j}", f"u{i}", float(rng.normal()))
            for i in range(15)
            for j in range(int(rng.integers(1, 5)))
        ]
        cfg = DesignConfig(bandwidth=0.6)
        stack = design_stack(Design.from_records(units, subs), cfg)
        assert sorted(subs[j].subunit_id for j in stack.event) == sorted(
            s.subunit_id for s in subs if abs(s.running) <= cfg.bandwidth
        )

    def test_rows_ordered_by_unit_then_subunit(self):
        rng = np.random.default_rng(5)
        subs = [sub(f"s{k}", f"u{int(rng.integers(0, 4))}", float(rng.uniform(-1, 1)))
                for k in range(30)]
        units = [unit(f"u{i}") for i in range(4)]
        graph = SpilloverGraph(tuple(
            (f"u{i}", s.subunit_id) for s in subs for i in rng.choice(4, size=2, replace=False)
        ))
        for g in (None, graph):
            stack = design_stack(Design.from_records(units[::-1], subs[::-1], g),
                                 DesignConfig(bandwidth=0.7), spillover=g is not None)
            keys = [(stack.unit_ids[i], subs[::-1][j].subunit_id)
                    for i, j in zip(stack.unit_row, stack.event)]
            assert keys == sorted(keys)


class TestKernel:
    def test_triangular_values(self):
        w = kernel_weights(np.array([0.0, 1.0, -1.0, 0.5]),
                           DesignConfig(bandwidth=1.0, kernel="triangular"))
        assert w[0] == 1.0
        assert w[1] == 0.0
        assert w[2] == 0.0
        assert w[3] == pytest.approx(0.5)

    def test_uniform_is_one(self):
        for w in kernel_weights(np.array([-0.09, 0.0, 0.02, 0.1]), DesignConfig(bandwidth=0.1)):
            assert w == 1.0

    def test_edge_rows_kept_with_zero_weight(self):
        units = [unit("u")]
        subs = [sub("edge", "u", 0.1)]
        stack = design_stack(Design.from_records(units, subs),
                             DesignConfig(bandwidth=0.1, kernel="triangular"))
        assert len(stack.event) == 1 and stack.kernel[0] == 0.0


class TestSpillover:
    def test_shared_close_neighbor(self):
        units = [unit("u1"), unit("u2")]
        subs = [sub("j", "other", 0.05, 1.0)]
        graph = SpilloverGraph((("u1", "j"), ("u2", "j")))
        got = build_spillover_exposure(graph, subs, units, DesignConfig(bandwidth=0.1))
        assert got["u1"][1] == 1.0 and got["u2"][1] == 1.0

    def test_unit_without_edges_gets_zeros(self):
        units = [unit("u1"), unit("lonely")]
        subs = [sub("j", "x", 0.05, 1.0)]
        graph = SpilloverGraph((("u1", "j"),))
        got = build_spillover_exposure(graph, subs, units, DesignConfig(bandwidth=0.1))
        assert got["lonely"] == (0.0, 0.0, (0.0, 0.0, 0.0))

    def test_line_graph_matches_enumeration(self):
        # four units in a line; each unit exposed to neighbors within distance 1
        rng = np.random.default_rng(3)
        units = [unit(f"u{i}") for i in range(4)]
        subs = [sub(f"j{i}", f"u{i}", float(rng.uniform(-0.2, 0.2)), float(rng.uniform(0.5, 2))) for i in range(4)]
        edges = []
        for i in range(4):
            for k in (i - 1, i + 1):
                if 0 <= k < 4:
                    edges.append((f"u{i}", f"j{k}"))
        graph = SpilloverGraph(tuple(edges))
        cfg = DesignConfig(bandwidth=0.1)
        got = build_spillover_exposure(graph, subs, units, cfg)
        for i in range(4):
            expected_x = expected_z = expected_w = 0.0
            for k in (i - 1, i + 1):
                if 0 <= k < 4:
                    s = subs[k]
                    z = 1.0 if s.running >= 0 else 0.0
                    expected_x += s.importance * z
                    if abs(s.running) <= 0.1:
                        expected_z += s.importance * z
                        expected_w += s.importance
            x, z, q = got[f"u{i}"]
            assert x == pytest.approx(expected_x)
            assert z == pytest.approx(expected_z)
            assert q[0] == pytest.approx(expected_w)

    def test_partition_graph_equals_plain_exposures(self):
        rng = np.random.default_rng(4)
        units = [unit(f"u{i}") for i in range(10)]
        subs = [
            sub(f"u{i}-s{j}", f"u{i}", float(rng.normal()), float(rng.uniform(0.2, 2)))
            for i in range(10)
            for j in range(3)
        ]
        cfg = DesignConfig(bandwidth=0.8)
        partition = SpilloverGraph(tuple((s.unit_id, s.subunit_id) for s in subs))
        via_graph = build_spillover_exposure(partition, subs, units, cfg)
        z = build_instrument(units, subs, cfg)
        x = aggregate_treatment(units, subs, cfg)
        q = build_rda_controls(units, subs, cfg)
        for uid in z:
            gx, gz, gq = via_graph[uid]
            assert gx == pytest.approx(x[uid], abs=1e-14)
            assert gz == pytest.approx(z[uid], abs=1e-14)
            assert gq == pytest.approx(q[uid], abs=1e-14)

    def test_dangling_edge_rejected(self):
        graph = SpilloverGraph((("u1", "ghost"),))
        with pytest.raises(IntegrityError, match="ghost"):
            build_spillover_exposure(graph, [sub("j", "u1", 0.0)], [unit("u1")], DesignConfig())


def collapsed_oracle(graph, units, subs, cfg):
    """IV on collapsed records averaged by hand: per close subunit, the
    unweighted mean outcome and treatment of its linked units, weight
    importance times neighbor count times kernel weight. Returns the dense
    fit, with its HC1 over the records, and the number of records."""
    x = {uid: v[0] for uid, v in build_spillover_exposure(graph, subs, units, cfg).items()}
    y = {u.unit_id: u.outcome for u in units}
    recs = []
    for s in sorted(subs, key=lambda s: s.subunit_id):
        neighbors = [u for u, j in graph.edges if j == s.subunit_id]
        kernel = 1.0 if cfg.kernel == "uniform" else 1.0 - abs(s.running) / cfg.bandwidth
        if abs(s.running) <= cfg.bandwidth and neighbors:
            recs.append((np.mean([y[u] for u in neighbors]), np.mean([x[u] for u in neighbors]),
                         s.importance * len(neighbors) * kernel, s.running))
    yy, xx, w, r = (np.array(col) for col in zip(*recs))
    z = (r >= 0).astype(float)
    return dense_tsls(yy, xx, z, np.column_stack([np.ones(len(r)), r, r * z]), w), len(recs)


class TestRecordBridge:
    def test_graph_becomes_edge_columns(self):
        units, subs = [unit("u1"), unit("u2")], [sub("a", "u1", 0.1), sub("b", "u2", -0.1)]
        graph = SpilloverGraph((("u2", "a"), ("u1", "b"), ("u1", "a")))
        design = Design.from_records(units, subs, graph)
        assert design.edge_unit.tolist() == [1, 0, 0]
        assert design.edge_event.tolist() == [0, 1, 0]
        assert design.to_records()[2] == graph

    def test_empty_graph_gives_empty_columns(self):
        design = Design.from_records([unit("u1")], [sub("a", "u1", 0.1)], SpilloverGraph(()))
        assert design.edge_unit.size == 0 and design.edge_event.size == 0
        assert design.to_records()[2] == SpilloverGraph(())

    def test_graph_holds_a_tuple_of_pairs(self):
        """Whatever sequence of pairs a graph is given, it holds a tuple of
        2-tuples: it equals and hashes as the graph of that tuple, and a
        later change to the caller's list reaches neither the graph nor
        the endpoint coding it keeps."""
        pairs = [["u1", "a"], ["u2", "b"]]
        graph = SpilloverGraph(pairs)
        same = SpilloverGraph((("u1", "a"), ("u2", "b")))
        assert graph.edges == same.edges and graph == same and hash(graph) == hash(same)
        assert len({graph, same}) == 1
        units, subs = [unit("u1"), unit("u2")], [sub("a", "u1", 0.1), sub("b", "u2", -0.1)]
        before = Design.from_records(units, subs, graph)  # codes the endpoints
        pairs[0][0] = "u2"
        pairs.append(["u1", "b"])
        after = Design.from_records(units, subs, graph)
        assert graph == same
        assert before.edge_unit.tolist() == after.edge_unit.tolist() == [0, 1]
        assert before.edge_event.tolist() == after.edge_event.tolist() == [0, 1]

    def test_graph_refuses_an_edge_that_is_not_a_pair(self):
        with pytest.raises(ConfigurationError, match="pairs"):
            SpilloverGraph([("u1", "a", "b")])

    def test_rebuilt_design_reads_the_coding_of_its_records(self):
        """The graph of to_records carries its design's coding, every unit
        id included; a rebuild resolves through it, and refuses only an
        endpoint that an edge names."""
        units = [unit("u1"), unit("u2"), unit("u3")]
        subs = [sub("a", "u1", 0.1), sub("b", "u2", -0.1)]
        graph = SpilloverGraph((("u2", "a"), ("u1", "b"), ("u1", "a")))
        units, subs, carried = Design.from_records(units, subs, graph).to_records()
        assert carried == graph and carried.coded.unit_ids == ["u1", "u2", "u3"]
        rebuilt = Design.from_records(units, subs, carried)
        assert rebuilt.edge_unit.tolist() == [1, 0, 0]
        assert rebuilt.edge_event.tolist() == [0, 1, 0]
        Design.from_records([u for u in units if u.unit_id != "u3"], subs, carried)
        with pytest.raises(IntegrityError,
                           match=r"^edges referencing missing endpoints: \['u2'\]$"):
            Design.from_records([u for u in units if u.unit_id != "u2"], subs, carried)

    def test_take_leaves_no_reference_cycle(self):
        # A recursive closure once held itself and the index array in a
        # cycle, so every take kept its rows alive until a collection.
        design = Design.from_records([unit("u1", fe_keys={"state": "s"}), unit("u2")],
                                     [sub("a", "u1", 0.1)])
        gc.disable()
        try:
            rows = np.array([1, 0])
            alive = weakref.ref(rows)
            assert design.units.take(rows).ids == ["u2", "u1"]
            del rows
            assert alive() is None
        finally:
            gc.enable()


class TestCollapse:
    def bundle(self, max_neighbors, n_interventions=12, orphans=0):
        rng = np.random.default_rng(6 + max_neighbors)
        units = [unit(f"u{i:02d}", float(rng.normal())) for i in range(20)]
        subs = [sub(f"j{k:02d}", "x", float(rng.uniform(-0.1, 0.1)), float(rng.uniform(0.5, 2)))
                for k in range(n_interventions + orphans)]
        edges = []
        for s in subs[:n_interventions]:
            for i in rng.choice(20, size=rng.integers(1, max_neighbors + 1), replace=False):
                edges.append((f"u{int(i):02d}", s.subunit_id))
        return units, subs, SpilloverGraph(tuple(edges))

    @staticmethod
    def assert_matches(got, want):
        """Beta, its SE and the first stage against the dense event-level fit."""
        for value, key in ((got.beta, "beta"), (got.robust_se, "robust_se"),
                           (got.first_stage.coefficient, "fs_coefficient"),
                           (got.first_stage.robust_se, "fs_se"),
                           (got.first_stage.partial_f, "fs_partial_f")):
            assert value == pytest.approx(want[key], rel=1e-10), key

    def test_neighbor_mean(self):
        units, subs, graph = self.bundle(max_neighbors=3)
        for kernel in ("uniform", "triangular"):
            cfg = DesignConfig(bandwidth=0.1, kernel=kernel)
            got = collapsed_iv(Design.from_records(units, subs, graph), cfg)
            want, n_records = collapsed_oracle(graph, units, subs, cfg)
            assert not any("dropped" in note for note in got.notes)
            self.assert_matches(got, want)
            assert got.n_units == got.n_stacked_rows == n_records == 12

    def test_single_neighbor_identity(self):
        units, subs, graph = self.bundle(max_neighbors=1)
        cfg = DesignConfig(bandwidth=0.1)
        got = collapsed_iv(Design.from_records(units, subs, graph), cfg)
        self.assert_matches(got, collapsed_oracle(graph, units, subs, cfg)[0])

    def test_neighborless_close_subunit_dropped_with_notice(self):
        units, subs, graph = self.bundle(max_neighbors=3, orphans=1)
        cfg = DesignConfig(bandwidth=0.1)
        got = collapsed_iv(Design.from_records(units, subs, graph), cfg)
        assert got.n_units == 12
        assert "dropped 1 close subunits with no linked units" in got.notes


class TestFilters:
    def test_parse_roundtrip(self):
        f = parse_filter("abs:margin>=2")
        assert f == AttributeFilter("margin", ">=", 2.0, absolute=True)
        assert f.describe() == "abs:margin>=2"

    def test_bad_syntax(self):
        with pytest.raises(ConfigurationError):
            parse_filter("votes!!20")

    def test_only_attribute_filters_accepted(self):
        with pytest.raises(ConfigurationError, match="AttributeFilter"):
            DesignConfig(filters=(lambda s: True,))

    def test_column_mask_fails_missing_values_for_every_operator(self):
        values = np.array([25.0, np.nan, -30.0, 20.0])
        assert parse_filter("votes!=20").mask(values).tolist() == [True, False, True, False]
        assert parse_filter("abs:votes>=25").mask(values).tolist() == [True, False, True, False]


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DesignConfig(bandwidth=-1.0)
    with pytest.raises(ConfigurationError):
        DesignConfig(kernel="epanechnikov")
    with pytest.raises(ConfigurationError):
        DesignConfig(cutoff_rule="above")


@pytest.mark.parametrize("kwargs", [
    {"fe_tol": float("nan")}, {"fe_tol": float("inf")}, {"fe_tol": 0.0}, {"fe_tol": -1e-10},
    {"fe_max_iter": 0}, {"fe_max_iter": -5},
    {"weak_f_threshold": float("nan")}, {"weak_f_threshold": float("inf")},
    {"weak_f_threshold": -1.0},
])
def test_config_refuses_settings_that_switch_absorption_or_weak_notes_off(kwargs):
    # with tol=nan, absorb_fixed_effects returns its input unchanged
    with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
        DesignConfig(**kwargs)
