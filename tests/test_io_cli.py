"""CSV schemas, bundle validation, round trips, and the command-line surface."""

import json
import time

import numpy as np
import pytest

from rdagg.cli import main
from rdagg.errors import IntegrityError, SchemaError
from rdagg.io import load_bundle, serialize_subunits, serialize_units, write_bundle

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

    def test_computation_error_exits_1(self, tmp_path, capsys):
        up = write(tmp_path, "units.csv", "unit_id,outcome,weight\nu1,oops,1.0\n")
        sp = write(tmp_path, "subunits.csv", MINIMAL_SUBUNITS)
        code = main(["estimate-upper", "--units", up, "--subunits", sp,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        payload = json.loads(err)
        assert "units.csv:2:outcome" in payload["error"]

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

    def test_balance_command(self, tmp_path):
        rng = np.random.default_rng(10)
        paths = full_bundle(tmp_path, rng, n=120)
        out = tmp_path / "bal"
        assert main(["balance", "--units", paths["units"], "--subunits",
                     paths["subunits"], "--bandwidth", "0.5", "--out", str(out)]) == 0
        payload = json.loads((out / "balance.json").read_text())
        assert 0.0 <= payload["partial_r2"] <= 1.0
        assert "share" in payload["covariates"]

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
