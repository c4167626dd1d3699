"""CSV schemas, bundle validation, round trips, and the command-line surface."""

import csv
import gc
import json
import math
import re
import struct
import time
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdagg import cli, simlab
from rdagg.cli import main
from rdagg.design import (
    AttributeFilter,
    Design,
    DesignConfig,
    SpilloverGraph,
    SubunitRecord,
    UnitRecord,
)
from rdagg.errors import ConfigurationError, IntegrityError, SchemaError
from rdagg.estimators import estimate_spillover_bilateral, upper_iv
from rdagg.io import (
    InputBundle,
    _FirstError,
    _number_column,
    load_bundle,
    load_design,
    load_edges,
    serialize_subunits,
    serialize_units,
    write_bundle,
)

MINIMAL_UNITS = "unit_id,outcome,weight\nu1,1.5,1.0\n"
MINIMAL_SUBUNITS = "subunit_id,unit_id,running,importance\nu1-s0,u1,0.05,1.0\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def full_bundle(tmp_path, rng, n=40, edges=False, controls=True):
    unit_header = "unit_id,outcome,weight,fe_region"
    unit_header += ",ctrl_share,treatment_override" if controls else ""
    units = [unit_header]
    subs = ["subunit_id,unit_id,running,importance,win_flag,attr_votes"]
    edge_rows = ["outcome_unit_id,subunit_id"]
    for i in range(n):
        uid = f"u{i:03d}"
        row = f"{uid},{rng.normal():.6f},{rng.uniform(0.5, 2):.6f},r{i % 3}"
        if controls:
            row += f",{rng.normal():.6f},"
        units.append(row)
        for j in range(int(rng.integers(1, 4))):
            sid = f"{uid}-s{j}"
            subs.append(
                f"{sid},{uid},{rng.normal():.6f},{rng.uniform(0.2, 1):.6f},"
                f"{int(rng.random() < 0.5)},{int(rng.integers(10, 80))}"
            )
            if edges:
                edge_rows.append(f"{uid},{sid}")
    paths = {
        "units": write(tmp_path, "units.csv", "\n".join(units) + "\n"),
        "subunits": write(tmp_path, "subunits.csv", "\n".join(subs) + "\n"),
    }
    if edges:
        paths["edges"] = write(tmp_path, "edges.csv", "\n".join(edge_rows) + "\n")
    return paths


class TestLoad:
    def test_minimal_bundle_round_trips_to_identical_csv(self, tmp_path):
        up = write(tmp_path, "units.csv", MINIMAL_UNITS)
        sp = write(tmp_path, "subunits.csv", MINIMAL_SUBUNITS)
        bundle = load_bundle(up, sp)
        assert len(bundle.units) == 1 and len(bundle.subunits) == 1
        u2, s2 = str(tmp_path / "u2.csv"), str(tmp_path / "s2.csv")
        write_bundle(bundle, u2, s2)
        reloaded = load_bundle(u2, s2)
        u3, s3 = str(tmp_path / "u3.csv"), str(tmp_path / "s3.csv")
        write_bundle(reloaded, u3, s3)
        assert open(u2).read() == open(u3).read()
        assert open(s2).read() == open(s3).read()

    def test_full_round_trip_preserves_content(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = full_bundle(tmp_path, rng, edges=True)
        bundle = load_bundle(paths["units"], paths["subunits"], paths["edges"])
        out = {k: str(tmp_path / f"out_{k}.csv") for k in paths}
        write_bundle(bundle, out["units"], out["subunits"], out["edges"])
        again = load_bundle(out["units"], out["subunits"], out["edges"])
        assert again.units == bundle.units
        assert again.subunits == bundle.subunits
        assert again.edges == bundle.edges

    def test_orphan_subunit_rejected_with_id(self, tmp_path):
        up = write(tmp_path, "units.csv", MINIMAL_UNITS)
        sp = write(
            tmp_path, "subunits.csv",
            "subunit_id,unit_id,running,importance\nghost-s0,ghost,0.0,1.0\n",
        )
        with pytest.raises(IntegrityError, match="ghost"):
            load_bundle(up, sp)

    def test_bad_number_names_file_line_column(self, tmp_path):
        up = write(tmp_path, "units.csv", "unit_id,outcome,weight\nu1,abc,1.0\n")
        sp = write(tmp_path, "subunits.csv", MINIMAL_SUBUNITS)
        with pytest.raises(SchemaError, match=r"units\.csv:2:outcome"):
            load_bundle(up, sp)

    def test_blank_fixed_effect_key_names_file_line_column(self, tmp_path):
        up = write(
            tmp_path, "units.csv",
            "unit_id,outcome,weight,fe_region\nu1,1.0,1.0,north\nu2,2.0,1.0, \n",
        )
        sp = write(tmp_path, "subunits.csv", MINIMAL_SUBUNITS)
        with pytest.raises(SchemaError, match=r"units\.csv:3:fe_region: empty"):
            load_bundle(up, sp)

    def test_quoted_id_spanning_lines_keeps_later_line_numbers(self, tmp_path):
        sp = write(tmp_path, "subunits.csv", MINIMAL_SUBUNITS)
        for name, bad_row, message in [
            ("bad_cell.csv", "u2,abc,1.0", r"bad_cell\.csv:4:outcome: cannot parse 'abc'"),
            ("short_row.csv", "u2,1.0", r"short_row\.csv:4: expected 3 fields, got 2"),
        ]:
            up = write(tmp_path, name, f'unit_id,outcome,weight\n"u\n1",1.0,1.0\n{bad_row}\n')
            with pytest.raises(SchemaError, match=message):
                load_design(up, sp)

    def test_duplicate_ids_rejected(self, tmp_path):
        up = write(tmp_path, "units.csv", MINIMAL_UNITS + "u1,2.0,1.0\n")
        sp = write(tmp_path, "subunits.csv", MINIMAL_SUBUNITS)
        with pytest.raises(IntegrityError, match="duplicate unit ids"):
            load_bundle(up, sp)

    def test_unknown_column_rejected(self, tmp_path):
        up = write(tmp_path, "units.csv", "unit_id,outcome,weight,bogus\nu1,1.0,1.0,x\n")
        sp = write(tmp_path, "subunits.csv", MINIMAL_SUBUNITS)
        with pytest.raises(SchemaError, match="bogus"):
            load_bundle(up, sp)

    def test_weight_cap_filter(self, tmp_path):
        up = write(tmp_path, "units.csv", "unit_id,outcome,weight\nu1,1.0,1.0\nu2,2.0,1.0\n")
        sp = write(
            tmp_path, "subunits.csv",
            "subunit_id,unit_id,running,importance\n"
            "u1-s0,u1,0.0,0.4\nu2-s0,u2,0.0,0.9\nu2-s1,u2,0.1,0.8\n",
        )
        bundle = load_bundle(up, sp, weight_cap=1.0)
        assert [u.unit_id for u in bundle.units] == ["u1"]
        assert bundle.report.dropped_unit_ids == ["u2"]
        assert len(bundle.report.dropped_subunit_ids) == 2

    def test_nan_weight_cap_refused(self, tmp_path):
        # a NaN cap once dropped no unit, since no total exceeds NaN
        up = write(tmp_path, "units.csv", MINIMAL_UNITS)
        sp = write(tmp_path, "subunits.csv", MINIMAL_SUBUNITS)
        with pytest.raises(ConfigurationError, match="^weight_cap must not be NaN$"):
            load_design(up, sp, weight_cap=float("nan"))

    @pytest.mark.parametrize("collecting", [True, False])
    def test_reader_leaves_the_collector_as_it_found_it(self, tmp_path, collecting):
        up = write(tmp_path, "units.csv", MINIMAL_UNITS)
        sp = write(tmp_path, "subunits.csv", MINIMAL_SUBUNITS)
        huge = write(tmp_path, "huge.csv", "unit_id,outcome,weight\nu1," + "1" * 200_000 + ",1\n")
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            load_bundle(up, sp)
            assert gc.isenabled() is collecting
            with pytest.raises((csv.Error, SchemaError)):
                load_bundle(huge, sp)
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()

    def test_ten_thousand_units_load_fast(self, tmp_path):
        rows_u = ["unit_id,outcome,weight"]
        rows_s = ["subunit_id,unit_id,running,importance"]
        rng = np.random.default_rng(1)
        n = 10_000
        for i in range(n):
            rows_u.append(f"u{i:05d},{rng.normal():.4f},1.0")
            rows_s.append(f"u{i:05d}-s0,u{i:05d},{rng.normal():.4f},1.0")
        up = write(tmp_path, "units.csv", "\n".join(rows_u) + "\n")
        sp = write(tmp_path, "subunits.csv", "\n".join(rows_s) + "\n")
        t0 = time.time()
        bundle = load_bundle(up, sp)
        elapsed = time.time() - t0
        assert len(bundle.units) == n and len(bundle.subunits) == n
        assert elapsed < 1.0

    def test_ten_thousand_units_all_over_weight_cap_load_fast(self, tmp_path):
        rows_u = ["unit_id,outcome,weight"]
        rows_s = ["subunit_id,unit_id,running,importance"]
        rng = np.random.default_rng(2)
        n = 10_000
        for i in range(n):
            rows_u.append(f"u{i:05d},{rng.normal():.4f},1.0")
            rows_s.append(f"u{i:05d}-s0,u{i:05d},{rng.normal():.4f},1.0")
        up = write(tmp_path, "units.csv", "\n".join(rows_u) + "\n")
        sp = write(tmp_path, "subunits.csv", "\n".join(rows_s) + "\n")
        t0 = time.time()
        bundle = load_bundle(up, sp, weight_cap=0.5)
        elapsed = time.time() - t0
        assert bundle.units == [] and bundle.subunits == []
        assert bundle.report.dropped_unit_ids == [f"u{i:05d}" for i in range(n)]
        assert bundle.report.dropped_subunit_ids == [f"u{i:05d}-s0" for i in range(n)]
        assert bundle.report.messages == [
            f"dropped {n} units with total subunit weight above 0.5 (and {n} subunits)"
        ]
        assert elapsed < 1.0

    def weight_cap_bundle(self, tmp_path, cross_edge):
        """Twelve units with three events each; u00's events weigh 1.5 in all,
        over a cap of 1.2, the others 0.9. With ``cross_edge``, u01 is also
        linked to u00's first event."""
        rng = np.random.default_rng(21)
        units, subs, edges = ["unit_id,outcome,weight"], ["subunit_id,unit_id,running,importance"], []
        for i in range(12):
            uid = f"u{i:02d}"
            units.append(f"{uid},{rng.normal():.6f},1.0")
            for j in range(3):
                subs.append(f"{uid}-s{j},{uid},{rng.uniform(-0.5, 0.5):.6f},"
                            f"{0.5 if i == 0 else 0.3}")
                edges.append(f"{uid},{uid}-s{j}")
        if cross_edge:
            edges.append("u01,u00-s0")
        return (write(tmp_path, "units.csv", "\n".join(units) + "\n"),
                write(tmp_path, "subunits.csv", "\n".join(subs) + "\n"),
                write(tmp_path, "edges.csv",
                      "outcome_unit_id,subunit_id\n" + "\n".join(edges) + "\n"))

    def test_weight_cap_drops_edges_to_dropped_subunits(self, tmp_path):
        paths = self.weight_cap_bundle(tmp_path, cross_edge=True)
        bundle = load_bundle(*paths, weight_cap=1.2)
        assert bundle.report.dropped_unit_ids == ["u00"]
        assert bundle.report.dropped_subunit_ids == ["u00-s0", "u00-s1", "u00-s2"]
        assert bundle.report.dropped_edges == 1
        assert bundle.report.messages == [
            "dropped 1 units with total subunit weight above 1.2 (and 3 subunits)",
            "dropped 1 edges from kept units to dropped subunits",
        ]
        # the benchmark counts load_edges rows by len() and reads
        # load_bundle(...).edges as a graph in file order
        assert len(load_edges(paths[2])) == 37
        with open(paths[2], encoding="utf-8") as fh:
            rows = [tuple(row) for row in csv.reader(fh)][1:]
        assert isinstance(bundle.edges, SpilloverGraph)
        assert bundle.edges.edges == tuple(e for e in rows if not e[1].startswith("u00-"))
        result = estimate_spillover_bilateral(bundle.edges, bundle.units, bundle.subunits,
                                              DesignConfig(bandwidth=1.0))
        assert result.n_stacked_rows == 33
        out = tmp_path / "cli"
        assert main(["spillover", "bilateral", "--units", paths[0], "--subunits", paths[1],
                     "--edges", paths[2], "--weight-cap", "1.2", "--bandwidth", "1.0",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["validation"] == bundle.report.messages

    def test_weight_cap_keeps_subunits_of_unknown_units(self, tmp_path):
        # Three events of the unit id "ghost", which names no unit, weigh
        # 1.5 in all; "ghost" was reported as a dropped unit and its events
        # and their edges were removed.
        units, subunits, edges = self.weight_cap_bundle(tmp_path, cross_edge=False)
        with open(subunits, "a", encoding="utf-8") as fh:
            fh.writelines(f"ghost-s{j},ghost,0.1,0.5\n" for j in range(3))
        with open(edges, "a", encoding="utf-8") as fh:
            fh.writelines(f"u01,ghost-s{j}\n" for j in range(3))
        design, report = load_design(units, subunits, edges, weight_cap=1.2)
        assert report.dropped_unit_ids == ["u00"]
        assert report.dropped_subunit_ids == ["u00-s0", "u00-s1", "u00-s2"]
        assert report.messages == [
            "dropped 1 units with total subunit weight above 1.2 (and 3 subunits)"
        ]
        assert [j for j in design.events.ids if j.startswith("ghost")] == [
            "ghost-s0", "ghost-s1", "ghost-s2"]
        assert len(design.edge_unit) == 36

    def test_weight_cap_without_cross_edges_adds_no_message(self, tmp_path):
        paths = self.weight_cap_bundle(tmp_path, cross_edge=False)
        bundle = load_bundle(*paths, weight_cap=1.2)
        assert bundle.report.dropped_edges == 0
        assert bundle.report.messages == [
            "dropped 1 units with total subunit weight above 1.2 (and 3 subunits)"
        ]
        assert len(load_edges(paths[2])) == 36
        assert isinstance(bundle.edges, SpilloverGraph)
        assert bundle.edges.edges == tuple(
            (f"u{i:02d}", f"u{i:02d}-s{j}") for i in range(1, 12) for j in range(3))

    def test_spillover_mode_allows_unattached_subunits(self, tmp_path):
        up = write(tmp_path, "units.csv", MINIMAL_UNITS)
        sp = write(
            tmp_path, "subunits.csv",
            "subunit_id,unit_id,running,importance\nj0,elsewhere,0.01,1.0\n",
        )
        ep = write(tmp_path, "edges.csv", "outcome_unit_id,subunit_id\nu1,j0\n")
        bundle = load_bundle(up, sp, ep)
        assert bundle.edges.edges == (("u1", "j0"),)
        bad = write(tmp_path, "edges_bad.csv", "outcome_unit_id,subunit_id\nu1,nope\n")
        with pytest.raises(IntegrityError, match="nope"):
            load_bundle(up, sp, bad)


class TestIntegrityGate:
    """The CSV loader and the record API refuse the same id faults with the
    same message, whatever the row order."""

    UNITS = [("u1", 1.0, 1.0), ("u2", 2.0, 1.0), ("u3", 0.5, 1.0)]
    SUBUNITS = [("j1", "u1", 0.05, 1.0), ("j2", "u2", -0.05, 1.0), ("j3", "u3", 0.02, 1.0)]
    FAULTS = {
        "duplicate unit ids": (
            UNITS + [("u3", 1.0, 1.0), ("u1", 1.0, 1.0)], SUBUNITS, None,
            "duplicate unit ids: ['u1', 'u3']"),
        "duplicate subunit ids": (
            UNITS, SUBUNITS + [("j2", "u1", 0.01, 1.0)], None,
            "duplicate subunit ids: ['j2']"),
        "edge to an unknown unit": (
            UNITS, SUBUNITS, [("u1", "j1"), ("zz", "j2"), ("yy", "j3")],
            "edges referencing missing endpoints: ['yy', 'zz']"),
        "edge to an unknown subunit": (
            UNITS, SUBUNITS, [("u1", "j1"), ("u2", "ghost")],
            "edges referencing missing endpoints: ['ghost']"),
        "duplicate edges": (
            UNITS, SUBUNITS, [("u2", "j2"), ("u1", "j1"), ("u2", "j2"), ("u3", "j1"),
                              ("u1", "j1"), ("u2", "j2")],
            "duplicate edges: [('u1', 'j1'), ('u2', 'j2')]"),
        "orphan subunit": (
            UNITS, SUBUNITS + [("s9", "nope9", 0.0, 1.0), ("s8", "nope8", 0.0, 1.0)], None,
            "subunits referencing missing units: ['s8', 's9']"),
    }

    @staticmethod
    def write_files(tmp_path, units, subunits, edges):
        paths = [
            write(tmp_path, "units.csv", "unit_id,outcome,weight\n"
                  + "".join(f"{u},{y},{w}\n" for u, y, w in units)),
            write(tmp_path, "subunits.csv", "subunit_id,unit_id,running,importance\n"
                  + "".join(f"{j},{u},{r},{s}\n" for j, u, r, s in subunits)),
        ]
        if edges is not None:
            paths.append(write(tmp_path, "edges.csv", "outcome_unit_id,subunit_id\n"
                               + "".join(f"{u},{j}\n" for u, j in edges)))
        return paths

    @pytest.mark.parametrize("reverse", [False, True], ids=["as-given", "reversed"])
    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_csv_and_records_refuse_alike(self, tmp_path, fault, reverse):
        units, subunits, edges, message = self.FAULTS[fault]
        if reverse:
            units, subunits = units[::-1], subunits[::-1]
            edges = None if edges is None else edges[::-1]
        with pytest.raises(IntegrityError) as from_csv:
            load_design(*self.write_files(tmp_path, units, subunits, edges))
        graph = None if edges is None else SpilloverGraph(tuple(edges))
        records = ([UnitRecord(u, y, analysis_weight=w) for u, y, w in units],
                   [SubunitRecord(j, u, r, s) for j, u, r, s in subunits])
        with pytest.raises(IntegrityError) as from_records:
            upper_iv(Design.from_records(*records, graph), DesignConfig(bandwidth=0.5),
                     spillover=graph is not None)
        assert str(from_csv.value) == str(from_records.value) == message

    def test_duplicate_unit_over_weight_cap_still_refused(self, tmp_path):
        units = self.UNITS + [("u1", 3.0, 1.0)]
        subunits = self.SUBUNITS + [("j4", "u1", 0.1, 1.0)]
        with pytest.raises(IntegrityError, match=r"^duplicate unit ids: \['u1'\]$"):
            load_design(*self.write_files(tmp_path, units, subunits, None), weight_cap=1.5)


class TestLoadErrors:
    """Every loader error names its file, line and (where there is one)
    column; the messages below are part of the CSV contract."""

    SUB_HEADER = "subunit_id,unit_id,running,importance,win_flag\n"

    def load_subunit_row(self, tmp_path, row):
        up = write(tmp_path, "units.csv", MINIMAL_UNITS)
        sp = write(tmp_path, "subunits.csv", self.SUB_HEADER + "u1-s0,u1,0.05,1.0,1\n" + row)
        return load_bundle(up, sp)

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_running(self, tmp_path, value):
        with pytest.raises(SchemaError) as err:
            self.load_subunit_row(tmp_path, f"u1-s1,u1,{value},1.0,\n")
        assert str(err.value).endswith(
            f"subunits.csv:3:running: value must be finite, got '{value}'"
        )

    def test_zero_importance(self, tmp_path):
        with pytest.raises(SchemaError) as err:
            self.load_subunit_row(tmp_path, "u1-s1,u1,0.1,0,\n")
        assert str(err.value).endswith("subunits.csv:3:importance: must be positive")

    def test_win_flag_out_of_range(self, tmp_path):
        with pytest.raises(SchemaError) as err:
            self.load_subunit_row(tmp_path, "u1-s1,u1,0.1,1.0,2\n")
        assert str(err.value).endswith("subunits.csv:3:win_flag: win_flag must be 0/1, got '2'")

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(SchemaError) as err:
            self.load_subunit_row(tmp_path, "u1-s1,u1,0.1,1.0,1,extra\n")
        assert str(err.value).endswith("subunits.csv:3: expected 5 fields, got 6")

    def test_wrong_field_count_reported_before_bad_values(self, tmp_path):
        # the whole file is split into rows before any cell is parsed
        with pytest.raises(SchemaError) as err:
            self.load_subunit_row(tmp_path, "u1-s1,u1,abc,1.0,\nu1-s2,u1,0.1\n")
        assert str(err.value).endswith("subunits.csv:4: expected 5 fields, got 3")

    def test_empty_subunit_id(self, tmp_path):
        with pytest.raises(SchemaError) as err:
            self.load_subunit_row(tmp_path, " ,u1,0.1,1.0,\n")
        assert str(err.value).endswith("subunits.csv:3:subunit_id: empty id")

    def test_blank_edge_endpoint(self, tmp_path):
        up = write(tmp_path, "units.csv", MINIMAL_UNITS)
        sp = write(tmp_path, "subunits.csv", MINIMAL_SUBUNITS)
        ep = write(tmp_path, "edges.csv", "outcome_unit_id,subunit_id\nu1,u1-s0\n,u1-s0\n")
        with pytest.raises(SchemaError) as err:
            load_bundle(up, sp, ep)
        assert str(err.value).endswith("edges.csv:3: empty edge endpoint")

    def test_field_over_the_csv_limit(self, tmp_path):
        up = write(tmp_path, "units.csv", f"unit_id,outcome,weight\nu1,{'1' * 200_000},1.0\n")
        sp = write(tmp_path, "subunits.csv", MINIMAL_SUBUNITS)
        with pytest.raises(SchemaError, match=r"units\.csv:2: field larger than field limit"):
            load_design(up, sp)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_not_utf8_names_line_and_byte(self, tmp_path, newline):
        up = write(tmp_path, "units.csv", MINIMAL_UNITS)
        head = (self.SUB_HEADER + "u1-s0,u1,0.05,1.0,1\n").replace("\n", newline).encode()
        sp = tmp_path / "subunits.csv"
        sp.write_bytes(head + b"u1-s1\xff,u1,0.1,1.0," + newline.encode())
        with pytest.raises(SchemaError) as err:
            load_design(up, str(sp))
        assert str(err.value) == (
            f"{sp}:3: not valid UTF-8 (byte 0xff at offset {len(head) + 5})")

    def test_treatment_override_not_a_number(self, tmp_path):
        up = write(tmp_path, "units.csv",
                   "unit_id,outcome,weight,treatment_override\nu1,1.5,1.0,\nu2,1.0,1.0,half\n")
        sp = write(tmp_path, "subunits.csv", MINIMAL_SUBUNITS)
        with pytest.raises(SchemaError) as err:
            load_bundle(up, sp)
        assert str(err.value).endswith(
            "units.csv:3:treatment_override: cannot parse 'half' as a number"
        )

    def test_padded_and_underscored_numbers_parse(self, tmp_path):
        up = write(tmp_path, "units.csv",
                   "unit_id,outcome,weight,ctrl_x\n u1 , 1.5 ,1_000,2_5.0_1\n")
        sp = write(tmp_path, "subunits.csv",
                   self.SUB_HEADER + " u1-s0 ,u1, 1.5 , 1_000 , 1 \n")
        bundle = load_bundle(up, sp)
        (unit,), (subunit,) = bundle.units, bundle.subunits
        assert (unit.unit_id, unit.outcome, unit.analysis_weight) == ("u1", 1.5, 1000.0)
        assert unit.extra_controls == {"x": 25.01}
        assert (subunit.subunit_id, subunit.unit_id) == ("u1-s0", "u1")
        assert (subunit.running, subunit.importance, subunit.win_flag) == (1.5, 1000.0, True)


class TestFirstOfTwoErrors:
    """With two bad cells, the message is the one a row-by-row reader meets
    first: the earliest row, and in it the earliest check."""

    def load(self, tmp_path, units=MINIMAL_UNITS, subunit_rows=""):
        up = write(tmp_path, "units.csv", units)
        sp = write(tmp_path, "subunits.csv", TestLoadErrors.SUB_HEADER
                   + "u1-s0,u1,0.05,1.0,1\n" + subunit_rows)
        return load_bundle(up, sp)

    def test_in_different_rows_and_columns(self, tmp_path):
        # a later column on an earlier row beats an earlier column on a later row
        with pytest.raises(SchemaError) as err:
            self.load(tmp_path, units="unit_id,outcome,weight,ctrl_x\nu1,1.0,1.0,oops\n"
                                      "u2,inf,1.0,2.0\n")
        assert str(err.value).endswith("units.csv:2:ctrl_x: cannot parse 'oops' as a number")
        with pytest.raises(SchemaError) as err:
            self.load(tmp_path, subunit_rows="u1-s1,u1,0.1,1.0,yes\nu1-s2,u1,0.2,0,\n")
        assert str(err.value).endswith("subunits.csv:3:win_flag: win_flag must be 0/1, got 'yes'")
        with pytest.raises(ConfigurationError) as err:
            self.load(tmp_path, units="unit_id,outcome,weight\nu1,1.0,1.0\nu2,2.0,-2\n"
                                      "u3,x,1.0\n")
        assert str(err.value) == "unit 'u2': analysis_weight must be nonnegative"

    def test_in_one_row(self, tmp_path):
        # importance is checked before running, whatever the column order
        with pytest.raises(SchemaError) as err:
            self.load(tmp_path, subunit_rows="u1-s1,u1,nan,-1,\n")
        assert str(err.value).endswith("subunits.csv:3:importance: must be positive")
        # every cell parses before the nonnegative-weight check
        with pytest.raises(SchemaError) as err:
            self.load(tmp_path, units="unit_id,outcome,weight,treatment_override\n"
                                      "u1,1.0,-2,half\n")
        assert str(err.value).endswith(
            "units.csv:2:treatment_override: cannot parse 'half' as a number"
        )


FLOAT_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats(width=32).map(str),
    st.text(alphabet="0123456789_.eE+-infatyINFATY \t", max_size=10),
    st.sampled_from(["1e500", "-1e500", "1e-400", "Infinity", "-iNf", "+nan", "-NaN",
                     "nan(1)", "1_000", "1__0", "_1", " 1.5 ", "\u0661\u0662", "0x10", "",
                     "1,5", "\u2003-2.5\u2003"]),
    st.text(max_size=6),
)


@settings(max_examples=400, deadline=None)
@given(cells=st.lists(FLOAT_TEXT, min_size=1, max_size=4))
def test_column_parse_accepts_exactly_what_float_accepts(cells):
    errors = _FirstError("f.csv", range(2, len(cells) + 2))
    values = _number_column(cells, "x", errors)
    expected = None
    for i, cell in enumerate(cells):
        try:
            x = float(cell)
        except ValueError:
            expected = f"f.csv:{i + 2}:x: cannot parse '{cell}' as a number"
            break
        if not math.isfinite(x):
            expected = f"f.csv:{i + 2}:x: value must be finite, got '{cell}'"
            break
        assert struct.pack("<d", values[i]) == struct.pack("<d", x)
    assert (None if errors.first is None else str(errors.first[1])) == expected


class TestSerialize:
    def test_canonical_ordering(self):
        from rdagg.design import SubunitRecord, UnitRecord

        units = [UnitRecord("b", 1.0), UnitRecord("a", 2.0)]
        text = serialize_units(units)
        lines = text.splitlines()
        assert lines[1].startswith("a,") and lines[2].startswith("b,")
        subs = [SubunitRecord("z", "b", 0.0, 1.0), SubunitRecord("a", "a", 0.0, 1.0)]
        lines = serialize_subunits(subs).splitlines()
        assert lines[1].startswith("a,") and lines[2].startswith("z,")

    def test_missing_fixed_effect_key_refused_before_writing(self, tmp_path):
        from rdagg.design import SubunitRecord, UnitRecord
        from rdagg.io import InputBundle

        units = [UnitRecord("a", 1.0, fe_keys={"state": "CA"}), UnitRecord("b", 2.0)]
        subs = [SubunitRecord("s", "a", 0.0, 1.0)]
        up, sp = tmp_path / "u.csv", tmp_path / "s.csv"
        with pytest.raises(SchemaError, match="'b'.*'state'"):
            write_bundle(InputBundle(units, subs), str(up), str(sp))
        assert not up.exists() and not sp.exists()


    def test_missing_control_refused_before_writing(self, tmp_path):
        from rdagg.design import SubunitRecord, UnitRecord
        from rdagg.io import InputBundle

        units = [UnitRecord("a", 1.0, extra_controls={"x": 1.0}), UnitRecord("b", 2.0)]
        subs = [SubunitRecord("s", "a", 0.0, 1.0)]
        up, sp = tmp_path / "u.csv", tmp_path / "s.csv"
        with pytest.raises(SchemaError, match="'b'.*'x'"):
            write_bundle(InputBundle(units, subs), str(up), str(sp))
        assert not up.exists() and not sp.exists()

    @pytest.mark.parametrize("where", ["unit", "subunit", "reference", "fe_key", "edge"])
    def test_outer_whitespace_refused_before_writing(self, tmp_path, where):
        # The loader strips every cell: a unit " a" came back as "a", and
        # the keys " x" and "x" as one fixed-effect group.
        units = [UnitRecord(" a" if where == "unit" else "a", 1.0,
                            fe_keys={"g": " x" if where == "fe_key" else "x"}),
                 UnitRecord("b", 2.0, fe_keys={"g": "x"})]
        subs = [SubunitRecord("s\t" if where == "subunit" else "s",
                              "b " if where == "reference" else "b", 0.0, 1.0)]
        edges = SpilloverGraph((("b", "s "),) if where == "edge" else (("b", "s"),))
        paths = [tmp_path / f for f in ("u.csv", "s.csv", "e.csv")]
        bad = {"unit": " a", "subunit": "s\t", "reference": "b ", "fe_key": " x",
               "edge": "s "}[where]
        with pytest.raises(SchemaError, match=re.escape(repr(bad))):
            write_bundle(InputBundle(units, subs, edges), *map(str, paths))
        assert not any(p.exists() for p in paths)

    def test_ragged_attributes_round_trip(self, tmp_path):
        from rdagg.design import SubunitRecord, UnitRecord
        from rdagg.io import InputBundle

        units = [UnitRecord("a", 1.0)]
        subs = [SubunitRecord("s1", "a", 0.1, 1.0, attributes={"votes": 30.0}),
                SubunitRecord("s2", "a", -0.2, 1.0, attributes={"margin": 2.5})]
        up, sp = tmp_path / "u.csv", tmp_path / "s.csv"
        write_bundle(InputBundle(units, subs), str(up), str(sp))
        loaded = load_bundle(str(up), str(sp))
        assert [s.attributes for s in loaded.subunits] == [{"votes": 30.0}, {"margin": 2.5}]


class TestCli:
    def test_upper_equals_lower_on_one_subunit_bundle(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        units = ["unit_id,outcome,weight"]
        subs = ["subunit_id,unit_id,running,importance"]
        for i in range(150):
            uid = f"u{i:03d}"
            r = rng.normal()
            y = 0.4 * (r >= 0) + 0.2 * r + 0.05 * rng.normal()
            units.append(f"{uid},{y:.8f},1.0")
            subs.append(f"{uid}-s0,{uid},{r:.8f},1.0")
        up = write(tmp_path, "units.csv", "\n".join(units) + "\n")
        sp = write(tmp_path, "subunits.csv", "\n".join(subs) + "\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        common = ["--units", up, "--subunits", sp, "--bandwidth", "0.8"]
        assert main(["estimate-upper", *common, "--out", str(out_a)]) == 0
        assert main(["estimate-lower", *common, "--out", str(out_b)]) == 0
        beta_a = json.loads((out_a / "result.json").read_text())["beta"]
        beta_b = json.loads((out_b / "result.json").read_text())["beta"]
        assert beta_a == pytest.approx(beta_b, rel=1e-10)

    def test_verify_equivalence_passes(self, tmp_path):
        rng = np.random.default_rng(3)
        paths = full_bundle(tmp_path, rng)
        out = tmp_path / "eq"
        code = main([
            "verify-equivalence", "--units", paths["units"], "--subunits",
            paths["subunits"], "--bandwidth", "0.9", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "equivalence.json").read_text())
        assert report["pass"] is True
        assert report["relative_gap"] <= 1e-8

    def test_estimation_commands_build_no_records(self, tmp_path, monkeypatch):
        units, subunits, _ = simlab.generate_dgp(simlab.DgpSpec(n_units=60, seed=3))
        up, sp = str(tmp_path / "units.csv"), str(tmp_path / "subunits.csv")
        write_bundle(InputBundle(units, subunits), up, sp)
        built = []
        for cls in (UnitRecord, SubunitRecord):
            init = cls.__init__

            def counted(self, *args, _init=init, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        for command in ("estimate-upper", "estimate-lower", "verify-equivalence"):
            assert main([command, "--units", up, "--subunits", sp, "--bandwidth", "0.8",
                         "--out", str(tmp_path / command)]) == 0
        assert built == []
        UnitRecord("u", 0.0)  # the wrapper counts
        assert built == ["UnitRecord"]

    def test_simulate_byte_identical(self, tmp_path):
        args = ["simulate", "--outcome", "linear", "--reps", "12", "--seed", "7",
                "--n-units", "80", "--h-grid", "0.5,1.0", "--boot", "40"]
        out_a, out_b = tmp_path / "m1", tmp_path / "m2"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "mc_summary.csv").read_bytes() == (out_b / "mc_summary.csv").read_bytes()

    def test_benchmark_command_sets_control_set(self, tmp_path):
        rng = np.random.default_rng(4)
        paths = full_bundle(tmp_path, rng)
        out = tmp_path / "bench"
        assert main([
            "estimate-benchmark", "--units", paths["units"], "--subunits",
            paths["subunits"], "--out", str(out),
        ]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["specification"] == "benchmark"
        assert "agg_running" not in result["control_coefficients"]

    def test_spillover_modes(self, tmp_path):
        rng = np.random.default_rng(5)
        paths = full_bundle(tmp_path, rng, edges=True, controls=False)
        betas = {}
        for mode in ("bilateral", "collapsed", "upper"):
            out = tmp_path / f"sp_{mode}"
            assert main([
                "spillover", mode, "--units", paths["units"], "--subunits",
                paths["subunits"], "--edges", paths["edges"],
                "--bandwidth", "0.9", "--out", str(out),
            ]) == 0
            betas[mode] = json.loads((out / "result.json").read_text())["beta"]
        # partition graph without extra controls at the pair level:
        # collapsing changes nothing
        assert betas["bilateral"] == pytest.approx(betas["collapsed"], rel=1e-10)

    def test_manifest_digest_changes_with_input(self, tmp_path):
        rng = np.random.default_rng(6)
        paths = full_bundle(tmp_path, rng)
        out1 = tmp_path / "m1"
        main(["estimate-upper", "--units", paths["units"], "--subunits",
              paths["subunits"], "--out", str(out1)])
        m1 = json.loads((out1 / "manifest.json").read_text())
        # identical rerun: identical digests
        out2 = tmp_path / "m2"
        main(["estimate-upper", "--units", paths["units"], "--subunits",
              paths["subunits"], "--out", str(out2)])
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["inputs"] == m2["inputs"]
        # touch one value: digest must change
        text = open(paths["units"]).read().replace("r0", "r9", 1)
        open(paths["units"], "w").write(text)
        out3 = tmp_path / "m3"
        main(["estimate-upper", "--units", paths["units"], "--subunits",
              paths["subunits"], "--out", str(out3)])
        m3 = json.loads((out3 / "manifest.json").read_text())
        assert m3["inputs"]["units.csv"] != m1["inputs"]["units.csv"]
        assert m3["inputs"]["subunits.csv"] == m1["inputs"]["subunits.csv"]

    def test_unknown_flag_exits_2(self):
        # --seed stays on simulate only: nothing on a bundle command read it
        for argv in (["estimate-upper", "--nonsense"],
                     ["estimate-upper", "--units", "u.csv", "--subunits", "s.csv",
                      "--seed", "1"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2

    @pytest.mark.parametrize("command", ["estimate-upper", "estimate-lower",
                                         "estimate-benchmark", "sharp-rd",
                                         "verify-equivalence", "balance", "plot-data"])
    def test_edges_refused_where_no_graph_is_read(self, tmp_path, command, capsys):
        paths = full_bundle(tmp_path, np.random.default_rng(8), edges=True)
        with pytest.raises(SystemExit) as err:
            main([command, "--units", paths["units"], "--subunits", paths["subunits"],
                  "--edges", paths["edges"], "--out", str(tmp_path / "out")])
        assert err.value.code == 2
        assert "unrecognized arguments: --edges" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sharp_rd_refuses_orphan_subunits(self, tmp_path, capsys):
        up = write(tmp_path, "units.csv", MINIMAL_UNITS)
        sp = write(tmp_path, "subunits.csv",
                   MINIMAL_SUBUNITS + "j1,ghost,0.1,1.0\nj2,ghost,-0.1,1.0\n")
        assert main(["sharp-rd", "--units", up, "--subunits", sp,
                     "--out", str(tmp_path / "out")]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "subunits referencing missing units: ['j1', 'j2']",
            "type": "IntegrityError"}

    def test_computation_error_exits_1(self, tmp_path, capsys):
        up = write(tmp_path, "units.csv", "unit_id,outcome,weight\nu1,oops,1.0\n")
        sp = write(tmp_path, "subunits.csv", MINIMAL_SUBUNITS)
        code = main(["estimate-upper", "--units", up, "--subunits", sp,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        payload = json.loads(err)
        assert "units.csv:2:outcome" in payload["error"]

    def test_oversized_field_exits_1_with_schema_error(self, tmp_path, capsys):
        up = write(tmp_path, "units.csv", f"unit_id,outcome,weight\nu1,{'1' * 200_000},1.0\n")
        sp = write(tmp_path, "subunits.csv", MINIMAL_SUBUNITS)
        code = main(["estimate-upper", "--units", up, "--subunits", sp,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["type"] == "SchemaError"
        assert "units.csv:2:" in payload["error"]

    def test_not_utf8_exits_1_with_schema_error(self, tmp_path, capsys):
        up = write(tmp_path, "units.csv", MINIMAL_UNITS)
        sp = tmp_path / "subunits.csv"
        sp.write_bytes(MINIMAL_SUBUNITS.encode().replace(b"0.05", b"0.0\xff"))
        code = main(["estimate-upper", "--units", up, "--subunits", str(sp),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": f"{sp}:2: not valid UTF-8 (byte 0xff at offset 50)",
            "type": "SchemaError"}

    def test_config_file_with_flag_override(self, tmp_path):
        rng = np.random.default_rng(8)
        paths = full_bundle(tmp_path, rng)
        cfg = write(tmp_path, "run.cfg",
                    "bandwidth = 0.4\ncontrol_set = total_weight_only\n"
                    "filters = votes>=20\n# comment line\n")
        out = tmp_path / "cfg_run"
        assert main(["estimate-upper", "--units", paths["units"], "--subunits",
                     paths["subunits"], "--config", cfg, "--bandwidth", "0.9",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        design = manifest["config"]["design"]
        assert design["bandwidth"] == 0.9  # flag beats file
        assert design["control_set"] == "total_weight_only"
        assert design["filters"] == ["votes>=20"]

    def test_simulate_reads_dgp_config(self, tmp_path):
        cfg = write(tmp_path, "sim.cfg",
                    "n_units = 60\noutcome_kind = symmetric_quadratic\nrho = 0.3\nseed = 5\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--reps", "4", "--boot", "20",
                     "--h-grid", "0.5", "--estimators", "upper", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["dgp"]["n_units"] == 60
        assert manifest["config"]["dgp"]["outcome_kind"] == "symmetric_quadratic"
        assert manifest["config"]["dgp"]["rho"] == 0.3
        assert manifest["seed"] == 5  # config seed used when no flag

    def test_sharp_rd_command(self, tmp_path):
        rng = np.random.default_rng(9)
        rows = ["subunit_id,unit_id,running,importance,attr_outcome"]
        for i in range(200):
            r = rng.uniform(-1, 1)
            y = 0.7 * (r >= 0) + 0.2 * r + 0.02 * rng.normal()
            rows.append(f"s{i:03d},s{i:03d},{r:.6f},1.0,{y:.8f}")
        sp = write(tmp_path, "subunits.csv", "\n".join(rows) + "\n")
        up = write(tmp_path, "units.csv",
                   "unit_id,outcome,weight\n" +
                   "\n".join(f"s{i:03d},0.0,1.0" for i in range(200)) + "\n")
        out = tmp_path / "sharp"
        assert main(["sharp-rd", "--units", up, "--subunits", sp,
                     "--bandwidth", "1.0", "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["beta"] == pytest.approx(0.7, abs=0.05)

    def test_var_decomp_command(self, tmp_path):
        micro = write(tmp_path, "micro.csv",
                      "cell,value,weight\na,1.0,1.0\na,3.0,1.0\nb,10.0,2.0\n")
        out = tmp_path / "vd"
        assert main(["var-decomp", "--micro", micro, "--out", str(out)]) == 0
        dec = json.loads((out / "decomposition.json").read_text())
        assert dec["within"] + dec["between"] == pytest.approx(dec["total"], rel=1e-12)

    def test_counterfactual_command(self, tmp_path):
        beta = -0.176
        cum = (0.346 - 0.385) / beta
        series = write(tmp_path, "series.csv",
                       f"period,actual,shortfall\n1970,0.272,0.0\n2010,0.385,{cum!r}\n")
        out = tmp_path / "cf"
        assert main(["counterfactual", "--series", series, "--beta", str(beta),
                     "--beta-lo", "-0.325", "--beta-hi", "-0.035",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "counterfactual.json").read_text())
        assert payload["contribution"] == pytest.approx(0.345, abs=0.001)

    def test_counterfactual_command_refuses_nan_beta(self, tmp_path, capsys):
        series = write(tmp_path, "series.csv", "period,actual,shortfall\n1970,0.272,0.0\n"
                                               "2010,0.385,0.2\n")
        assert main(["counterfactual", "--series", series, "--beta", "nan",
                     "--beta-lo", "-0.325", "--beta-hi", "-0.035",
                     "--out", str(tmp_path / "cf")]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["type"] == "ConfigurationError" and "beta" in error["error"]

    def test_balance_command(self, tmp_path):
        rng = np.random.default_rng(10)
        paths = full_bundle(tmp_path, rng, n=120)
        out = tmp_path / "bal"
        assert main(["balance", "--units", paths["units"], "--subunits",
                     paths["subunits"], "--bandwidth", "0.5", "--out", str(out)]) == 0
        payload = json.loads((out / "balance.json").read_text())
        assert 0.0 <= payload["partial_r2"] <= 1.0
        assert "share" in payload["covariates"]

    def test_balance_on_near_collinear_controls(self, tmp_path, capsys):
        """Two covariates 1e-8 apart, relative: the screen keeps both, so the
        contrast between them dominates both coefficients, and their SEs,
        which X'WX (condition number squared, about 1e16) could not give,
        agree to far better than 1e-6."""
        rng = np.random.default_rng(12)
        n = 200
        a = rng.normal(size=n)
        b = a * (1 + 1e-8 * rng.normal(size=n))
        units = ["unit_id,outcome,weight,ctrl_a,ctrl_b"]
        subs = ["subunit_id,unit_id,running,importance"]
        for i in range(n):
            units.append(f"u{i:03d},{rng.normal()!r},{rng.uniform(0.5, 2)!r},"
                         f"{float(a[i])!r},{float(b[i])!r}")
            subs += [f"u{i:03d}-s{j},u{i:03d},{rng.uniform(-1, 1)!r},{rng.uniform(0.2, 1)!r}"
                     for j in range(int(rng.integers(1, 4)))]
        out = tmp_path / "bal"
        code = main(["balance", "--units", write(tmp_path, "units.csv", "\n".join(units) + "\n"),
                     "--subunits", write(tmp_path, "subunits.csv", "\n".join(subs) + "\n"),
                     "--bandwidth", "0.5", "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        payload = json.loads((out / "balance.json").read_text())
        se = [payload["covariates"][lab]["robust_se"] for lab in ("a", "b")]
        assert all(isinstance(v, float) and 0 < v < math.inf for v in se)
        assert se[0] == pytest.approx(se[1], rel=1e-6)
        assert math.isfinite(payload["partial_f"])

    def test_plot_data_command(self, tmp_path):
        rng = np.random.default_rng(11)
        paths = full_bundle(tmp_path, rng, n=200)
        out = tmp_path / "plot"
        assert main(["plot-data", "--units", paths["units"], "--subunits",
                     paths["subunits"], "--bandwidth", "1.0", "--bins", "5",
                     "--out", str(out)]) == 0
        lines = (out / "bins.csv").read_text().splitlines()
        assert lines[0] == "side,running,value,weight,n"
        assert len(lines) == 11
        coeffs = json.loads((out / "lines.json").read_text())
        assert set(coeffs) == {"left", "right", "jump", "notices"}


# Every field of DesignConfig and DgpSpec: config-file text, and the value
# it must give, which is not the field's default.
DESIGN_SETTINGS = {
    "bandwidth": ("0.85", 0.85),
    "kernel": ("triangular", "triangular"),
    "cutoff_rule": ("strict_gt", "strict_gt"),
    "tie_policy": ("drop_exact_zero", "drop_exact_zero"),
    "filters": ("votes>=10.1234567, abs:votes<75", (
        AttributeFilter("votes", ">=", 10.1234567), AttributeFilter("votes", "<", 75.0, True))),
    "instrument_basis": ("win_flag", "win_flag"),
    "control_set": ("none", "none"),
    "fe_dimensions": ("region", ("region",)),
    "include_intercept": ("no", False),
    "lower_unit_weights": ("On", True),
    "fe_tol": ("1e-9", 1e-9),
    "fe_max_iter": ("500", 500),
    "weak_f_threshold": ("12.5", 12.5),
}
DGP_SETTINGS = {
    "n_units": ("40", 40),
    "n_subunits_per_unit": ("3", 3),
    "j_range": ("2:4", (2, 4)),
    "importance_scheme": ("unit_sum_one", "unit_sum_one"),
    "rho": ("0.25", 0.25),
    "outcome_kind": ("kinked_quadratic", "kinked_quadratic"),
    "noise_sd": ("0.5", 0.5),
    "effect_mean": ("2.5", 2.5),
    "effect_sd": ("0.75", 0.75),
    "seed": ("11", 11),
}


def config_text(settings):
    return "".join(f"{key} = {text}\n" for key, (text, _) in settings.items())


class TestOneSchema:
    """The config file is read from the dataclass fields, and only from them."""

    @pytest.mark.parametrize("cls, table", [(DesignConfig, DESIGN_SETTINGS),
                                            (simlab.DgpSpec, DGP_SETTINGS)])
    def test_every_field_reads_back_from_a_config_file(self, tmp_path, cls, table):
        assert list(table) == [f.name for f in fields(cls)]
        for f in fields(cls):
            assert table[f.name][1] != f.default, f.name
        cfg = write(tmp_path, "run.cfg", config_text(table))
        got = cli._settings(cls, cli.load_config_file(cfg), {})
        assert got == cls(**{key: value for key, (_, value) in table.items()})

    def test_manifest_echoes_read_back_to_the_same_settings(self, tmp_path):
        paths = full_bundle(tmp_path, np.random.default_rng(12), n=120)
        cfg = write(tmp_path, "run.cfg", config_text({**DESIGN_SETTINGS, **DGP_SETTINGS}))
        out = tmp_path / "lower"
        assert main(["estimate-lower", "--units", paths["units"], "--subunits",
                     paths["subunits"], "--config", cfg, "--out", str(out)]) == 0
        echo = json.loads((out / "manifest.json").read_text())["config"]["design"]
        again = write(tmp_path, "again.cfg", "".join(
            f"{key} = {','.join(value) if isinstance(value, list) else value}\n"
            for key, value in echo.items()))
        config = DesignConfig(**{key: value for key, (_, value) in DESIGN_SETTINGS.items()})
        assert cli._settings(DesignConfig, cli.load_config_file(again), {}) == config

        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--reps", "2", "--boot", "10",
                     "--h-grid", "0.5", "--estimators", "upper", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        spec = simlab.DgpSpec(**{key: value for key, (_, value) in DGP_SETTINGS.items()})
        assert manifest["config"]["dgp"] == {**asdict(spec), "j_range": [2, 4]}
        assert manifest["seed"] == 11

    @pytest.mark.parametrize("command, text, named", [
        ("estimate-upper", "bandwith = 0.3\n", "bandwith"),
        ("estimate-upper", "fe_dimension = state\nkernal = uniform\n",
         "['fe_dimension', 'kernal']"),
        ("estimate-upper", "bandwidth = abc\n", "bandwidth"),
        ("estimate-upper", "fe_max_iter = 1e4\n", "fe_max_iter"),
        ("estimate-upper", "include_intercept = maybe\n", "include_intercept"),
        ("estimate-upper", "filters = votes>>20\n", "filters"),
        ("simulate", "j_range = 3\n", "j_range"),
        ("simulate", "j_range = 2:4:6\n", "j_range"),
        ("simulate", "seed = 1.5\n", "seed"),
    ])
    def test_unknown_key_or_bad_value_exits_1(self, tmp_path, capsys, command, text, named):
        # a typo must not run at the default, nor a bad value end in a traceback
        cfg = write(tmp_path, "bad.cfg", text)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "out")]
        if command == "simulate":
            argv += ["--reps", "2", "--boot", "10", "--h-grid", "0.5"]
        else:
            paths = full_bundle(tmp_path, np.random.default_rng(13))
            argv += ["--units", paths["units"], "--subunits", paths["subunits"]]
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["type"] == "SchemaError"
        assert named in payload["error"]
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_config_not_utf8_names_line_and_byte(self, tmp_path, capsys, newline):
        head = f"bandwidth = 0.5{newline}# note{newline}".encode()
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(head + b"# caf\xe9" + newline.encode())
        assert main(["simulate", "--config", str(cfg), "--reps", "2", "--boot", "10",
                     "--h-grid", "0.5", "--out", str(tmp_path / "out")]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": f"{cfg}:3: not valid UTF-8 (byte 0xe9 at offset {len(head) + 5})",
            "type": "SchemaError"}

    def test_config_lines_end_at_each_line_break(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"bandwidth = 0.5\r\nrho = 0.2\rkernel\n")
        with pytest.raises(SchemaError, match=r"run\.cfg:3: expected key=value, got 'kernel'"):
            cli.load_config_file(str(cfg))
        cfg.write_bytes(b"bandwidth = 0.5\r\nrho = 0.2\rseed = 3")
        assert cli.load_config_file(str(cfg)) == {"bandwidth": "0.5", "rho": "0.2", "seed": "3"}
