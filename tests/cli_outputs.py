"""Every bundle command of the rdagg CLI on a fixed set of inputs, with all
that each run leaves behind, for comparing two trees byte for byte:

    PYTHONPATH=<tree>/src python tests/cli_outputs.py OUT
    diff -r OUT_a OUT_b

The script writes its bundles to OUT/inputs and runs each case in
OUT/cases/<bundle>[-cap|-<config>]/<command>: the command's output files, plus
``stdout``, ``stderr`` and ``exit``. The inputs are named by paths relative
to OUT, so messages do not depend on where OUT is. The bundles: a partition
bundle, the same units with two subunits of an unknown unit, and four edges
files over them (a graph with a cross edge into the capped unit, the
orphans' links, an edge to an unknown unit, a repeated edge row). The
bundles without edges run every command but ``spillover``, and one
``spillover`` run without ``--edges`` records the usage error; the bundles
with edges run the three ``spillover`` modes. Each runs with and without a
weight cap that drops one unit and the cross edge. The partition and graph
bundles also run with each ``--config`` file of CONFIGS: two absorb fixed
effects, in one dimension (region) and in two (region and sector), and one
sets the triangular kernel, so the stacked and collapsed fits weigh rows by
kernel. The
commands that read a keyed numeric table, ``var-decomp`` and
``counterfactual``, run in OUT/cases/tables/<case> on tables written to
OUT/inputs/tables, some of them malformed. ``simulate`` runs in
OUT/cases/simulate/<case>: a small sweep with fixed event counts, the same
on two threads, and one whose counts a ``j_range`` config file draws.

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

import io
import os
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from rdagg import cli

COMMANDS = (
    ("estimate-upper",),
    ("estimate-lower",),
    ("estimate-benchmark",),
    ("sharp-rd", "--outcome-attr", "outcome"),
    ("verify-equivalence",),
    ("balance",),
    ("plot-data", "--bins", "6"),
)
SPILLOVER_COMMANDS = (
    ("spillover", "bilateral"),
    ("spillover", "collapsed"),
    ("spillover", "upper"),
)
# u00's three events weigh 3.0 in all; every other unit's at most 2.4
WEIGHT_CAP = "2.7"
# config name -> its one line; sector (4 groups) crosses region (3 groups)
CONFIGS = {"fe-region": "fe_dimensions = region",
           "fe-region-sector": "fe_dimensions = region, sector",
           "triangular": "kernel = triangular"}


def write(path, rows):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(",".join(map(str, row)) + "\n" for row in rows))
    return path


def make_inputs():
    """The bundles: name -> (units, subunits, edges or None)."""
    rng = np.random.default_rng(16)
    n = 40
    units = [("unit_id", "outcome", "weight", "fe_region", "ctrl_share", "fe_sector")]
    subunits = [("subunit_id", "unit_id", "running", "importance", "win_flag",
                 "attr_votes", "attr_outcome")]
    graph = [("outcome_unit_id", "subunit_id")]
    for i in range(n):
        uid = f"u{i:02d}"
        units.append((uid, f"{rng.normal():.6f}", f"{rng.uniform(0.5, 2):.6f}", f"r{i % 3}",
                      f"{rng.normal():.6f}", f"k{i // 2 % 4}"))
        for k in range(3 if i == 0 else int(rng.integers(1, 4))):
            sid = f"{uid}-s{k}"
            r = rng.uniform(-1, 1)
            subunits.append((sid, uid, f"{r:.6f}",
                             "1.0" if i == 0 else f"{rng.uniform(0.2, 0.8):.6f}",
                             int(rng.random() < 0.5), int(rng.integers(10, 80)),
                             f"{0.5 * (r >= 0) + 0.3 * r + 0.1 * rng.normal():.6f}"))
            graph.append((uid, sid))
            if rng.random() < 0.5:
                other = (i + 1 + int(rng.integers(0, n - 1))) % n
                graph.append((f"u{other:02d}", sid))
    graph.append(("u01", "u00-s0"))
    orphans = subunits + [("ghost-s0", "ghost", "0.1", "0.5", 1, 30, "0.4"),
                          ("ghost-s1", "ghost", "-0.2", "0.5", 0, 40, "0.1")]
    files = {
        "units": write("inputs/units.csv", units),
        "subunits": write("inputs/subunits.csv", subunits),
        "orphan-subunits": write("inputs/orphan_subunits.csv", orphans),
        "graph": write("inputs/graph/edges.csv", graph),
        "orphan-graph": write("inputs/orphan_graph/edges.csv",
                              graph + [("u02", "ghost-s0"), ("u03", "ghost-s1")]),
        "unknown-endpoint": write("inputs/unknown_endpoint/edges.csv",
                                  graph + [("nobody", "u01-s0")]),
        "duplicate-edge": write("inputs/duplicate_edge/edges.csv", graph + [graph[5]]),
    }
    for name, line in CONFIGS.items():
        write(f"inputs/{name}.cfg", [(line,)])
    return {
        "partition": (files["units"], files["subunits"], None),
        "orphans": (files["units"], files["orphan-subunits"], None),
        "graph": (files["units"], files["subunits"], files["graph"]),
        "orphan-graph": (files["units"], files["orphan-subunits"], files["orphan-graph"]),
        "unknown-endpoint": (files["units"], files["subunits"], files["unknown-endpoint"]),
        "duplicate-edge": (files["units"], files["subunits"], files["duplicate-edge"]),
    }


def table_cases():
    """The table commands' cases: name -> argv."""
    rng = np.random.default_rng(19)
    micro = [("cell", "value", "weight", "note")] + [
        (f"c{int(rng.integers(0, 5))}", f"{rng.normal():.6f}", f"{rng.uniform(0.1, 3):.6f}", "x")
        for _ in range(30)]
    series = [("period", "actual", "shortfall")] + [
        (2000 + t, f"{0.27 + 0.01 * t + 0.002 * rng.normal():.6f}", f"{rng.uniform(0, 0.1):.6f}")
        for t in range(10)]
    files = {
        "micro": write("inputs/tables/micro.csv", micro),
        "series": write("inputs/tables/series.csv", series),
        "bad-number": write("inputs/tables/bad_number.csv",
                            series[:4] + [(2003, "0.3", "lots")] + series[5:]),
        "no-weight": write("inputs/tables/no_weight.csv", [row[:2] for row in micro]),
        "infinite": write("inputs/tables/infinite.csv", micro[:3] + [("c1", "inf", "1", "x")]),
    }
    beta = ["--beta", "-0.2", "--beta-lo", "-0.35", "--beta-hi", "-0.05"]
    return {
        "var-decomp": ["var-decomp", "--micro", files["micro"]],
        "var-decomp-no-weight": ["var-decomp", "--micro", files["no-weight"]],
        "var-decomp-infinite": ["var-decomp", "--micro", files["infinite"]],
        "counterfactual": ["counterfactual", "--series", files["series"]] + beta,
        "counterfactual-per-period": ["counterfactual", "--series", files["series"],
                                      "--per-period"] + beta,
        "counterfactual-bad-number": ["counterfactual", "--series", files["bad-number"]] + beta,
    }


def simulate_cases():
    """The Monte Carlo cases: name -> argv. At the smallest bandwidth the
    ``j_range`` sweep leaves a replication without an estimate, so its
    manifest lists failures."""
    config = write("inputs/simulate/j_range.cfg", [("j_range = 1:6",)])
    sweep = ["simulate", "--n-units", "40", "--seed", "5", "--reps", "4", "--boot", "50",
             "--h-grid", "0.05,0.4,0.9"]
    return {
        "fixed": sweep,
        "fixed-threads": sweep + ["--threads", "2"],
        "j-range": sweep + ["--config", config, "--importance", "dirichlet_random"],
    }


def run(argv, folder):
    """Run one command into ``folder`` and record its streams and exit code."""
    os.makedirs(folder)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = cli.main(argv + ["--out", folder])
        except SystemExit as exc:
            code = exc.code
    for name, text in (("stdout", out.getvalue()), ("stderr", err.getvalue()),
                       ("exit", f"{code}\n")):
        with open(os.path.join(folder, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


def bundle_cases():
    """The bundle commands' cases: folder under OUT/cases -> argv."""
    cases = {}
    for bundle, (units, subunits, edges) in make_inputs().items():
        files = ["--units", units, "--subunits", subunits] + (["--edges", edges] if edges else [])
        commands = SPILLOVER_COMMANDS if edges else COMMANDS
        variants = [("", []), ("-cap", ["--weight-cap", WEIGHT_CAP])]
        if bundle in ("partition", "graph"):
            variants += [(f"-{name}", ["--config", f"inputs/{name}.cfg"]) for name in CONFIGS]
        for suffix, flags in variants:
            for command in commands:
                cases[os.path.join(bundle + suffix, "-".join(command))] = (
                    list(command) + files + ["--bandwidth", "0.6"] + flags)
    units, subunits, _ = make_inputs()["partition"]
    cases[os.path.join("partition", "spillover-upper-no-edges")] = [
        "spillover", "upper", "--units", units, "--subunits", subunits, "--bandwidth", "0.6"]
    return cases


def main(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    os.chdir(out_dir)
    codes = {}
    for name, argv in bundle_cases().items():
        code = run(argv, os.path.join("cases", name))
        codes[code] = codes.get(code, 0) + 1
    for folder, cases in (("tables", table_cases()), ("simulate", simulate_cases())):
        for name, argv in cases.items():
            code = run(argv, os.path.join("cases", folder, name))
            codes[code] = codes.get(code, 0) + 1
    print(f"{sum(codes.values())} cases; exit codes {dict(sorted(codes.items()))}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: cli_outputs.py OUT")
    main(sys.argv[1])
