"""Alternating pairs of benchmark runs on two commits, summed up as a
``BENCH_<pr>.json`` at the repository root:

    python tests/bench_pairs.py PARENT CHANGE --pr N --seeds 281-290 \\
        --claim fe-spillover-2k:op_s_p50:0.20 [--seconds 30] [--gate-seconds 8] \\
        [--trace-seed 291] [--workloads a,b] [--work DIR] [--out BENCH_N.json] \\
        [--information NOTES.json]

PARENT and CHANGE are git revisions of this repository. Each is extracted
with ``git archive`` into its own clean directory under DIR (default: a new
temporary directory), so a run sees the committed files only and keeps its
own ``.perfbench`` state. For every workload of BENCHMARK.json and every
seed, ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` runs
once in each tree, the parent first on odd seeds and the change first on
even ones; the last line of each run's output is its JSON summary.

Each end-to-end metric of BENCHMARK.json is reported per workload as in
earlier ``BENCH_*.json`` files: each side's median and quartiles
(``statistics.quantiles(method='inclusive')``), the change's relative move,
the pairs the change won (a tie counts for neither side), whether the
medians differ by more than the parent's interquartile range, whether the
change stays within the metric's bound, and every pair by seed. The two
parts of ``setup_s``, the cold import and the program's set-up (each the
median of a run's repeats, from the run's record under
``.perfbench/results``), are reported the same way, without a bound. The claim
``W:M:F`` is met when metric M on workload W improves by at least the
fraction F in the median, the change wins at least nine in ten pairs and
the medians differ by more than the parent's interquartile range.

With ``--gate-seconds``, each workload also runs once at the reference seed
0 in the change's tree, where ``run.py`` checks every op against its
reference numbers. With ``--trace-seed``, the claim's workload runs once
traced (``--trace 1``) per tree, the change first, and the per-layer
metrics of both runs are recorded. ``--information`` adds a JSON file of
notes measured elsewhere under the key ``information``.

Each workload's raw run summaries are kept in DIR as ``runs-<workload>.json``.

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_SEED = 0


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(rev: str, where: Path) -> str:
    """The committed files of ``rev`` in ``where``; returns the full sha."""
    sha = git("rev-parse", rev).decode().strip()
    where.mkdir(parents=True)
    with tarfile.open(fileobj=BytesIO(git("archive", sha))) as tar:
        tar.extractall(where)
    return sha


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its JSON summary and its environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=3600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: no output\n{proc.stderr}")
    summary = json.loads(lines[-1])
    env = [line.split("environment", 1)[1] for line in lines if line.strip().startswith(
        "environment")]
    summary["environment"] = json.loads(env[0]) if env else {}
    record = tree / ".perfbench" / "results" / f"{workload}-{seed}-trace{trace}.json"
    summary["setup"] = json.loads(record.read_text())["setup"]
    return summary


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}


def compare(pairs: dict, better: str, bound: float) -> dict:
    """One metric on one workload over the pairs {seed: [parent, change]}."""
    parent = spread([p for p, _ in pairs.values()])
    change = spread([c for _, c in pairs.values()])
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in pairs.values())
    ties = sum(p == c for p, c in pairs.values())
    # a part that is always zero (no program set-up) has no relative move
    move = change["median"] / parent["median"] - 1.0 if parent["median"] else None
    return {
        "better": better, "bound": bound, "parent": parent, "change": change,
        "change_vs_parent": move, "change_wins": wins, "ties": ties,
        "gap_exceeds_parent_iqr": abs(change["median"] - parent["median"]) > parent["iqr"],
        "within_bound": None if bound is None or move is None else sign * move <= bound,
        "per_seed": {str(seed): pair for seed, pair in pairs.items()},
    }


def claim_result(workloads: dict, workload: str, metric: str, fraction: float) -> dict:
    m = workloads[workload]["metrics"][metric]
    parent, change = m["parent"]["median"], m["change"]["median"]
    gain = (parent - change) / parent if m["better"] == "lower" else change / parent - 1.0
    n = len(m["per_seed"])
    rate = workloads[workload]["metrics"].get("ops_per_s")
    return {
        "parent_median": parent, "change_median": change,
        "reduction" if m["better"] == "lower" else "increase": gain,
        "wins": f"{m['change_wins']}/{n}",
        "median_gap_s": abs(parent - change), "parent_iqr_s": m["parent"]["iqr"],
        "ops_per_s": None if rate is None else [rate["parent"]["median"],
                                                rate["change"]["median"]],
        "ops_per_s_wins": None if rate is None else rate["change_wins"],
        "met": bool(gain >= fraction and m["change_wins"] >= 0.9 * n
                    and m["gap_exceeds_parent_iqr"]),
    }


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--seeds", type=seed_list, required=True)
    p.add_argument("--claim", required=True, help="WORKLOAD:METRIC:FRACTION")
    p.add_argument("--seconds", type=float)
    p.add_argument("--gate-seconds", type=float)
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--workloads")
    p.add_argument("--work")
    p.add_argument("--out")
    p.add_argument("--information", help="a JSON file of notes, kept as 'information'")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    claim_workload, claim_metric, claim_fraction = args.claim.split(":")
    work = Path(args.work or tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {side: work / side for side in ("parent", "change")}
    shas = {side: extract(rev, trees[side]) for side, rev in
            (("parent", args.parent), ("change", args.change))}

    envs, workloads = {}, {}
    for name in names:
        runs = {seed: {} for seed in args.seeds}
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[seed][side] = run(trees[side], name, seed, seconds, 0)
                envs[side] = runs[seed][side]["environment"]
                values = {k: v["value"] for k, v in runs[seed][side]["metrics"].items()}
                print(f"{name} seed {seed} {side}: {json.dumps(values)}", flush=True)
        (work / f"runs-{name}.json").write_text(json.dumps(runs))
        workloads[name] = {
            "seeds": args.seeds, "pairs": len(args.seeds),
            "parent_first": [s for s in args.seeds if s % 2],
            "all_ops_correct": all(r[s]["correct"] for r in runs.values() for s in r),
            "ops": {s: sum(r[s]["attempted"] for r in runs.values()) for s in trees},
            "failed_ops": {s: sum(r[s]["failed"] for r in runs.values()) for s in trees},
            "tree": "committed",
            "metrics": {
                m["name"]: compare({seed: [runs[seed][s]["metrics"][m["name"]]["value"]
                                           for s in ("parent", "change")]
                                    for seed in args.seeds}, m["better"], m["bound"])
                for m in bench["end_to_end"]},
            # setup_s is the median cold import plus the median program set-up
            "setup_parts": {
                part: compare({seed: [statistics.median(runs[seed][s]["setup"][part])
                                      for s in ("parent", "change")]
                               for seed in args.seeds}, "lower", None)
                for part in ("import_s", "program_s")},
        }

    record = {
        "pr": args.pr,
        "claim": {"workload": claim_workload, "metric": claim_metric,
                  "target": f"-{float(claim_fraction):.0%} or more",
                  "result": claim_result(workloads, claim_workload, claim_metric,
                                         float(claim_fraction))},
        "method": (f"perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
                   "run once per side per seed, parent and change alternating which runs "
                   "first (parent first on odd seeds); each tree a clean copy of its commit "
                   "in its own directory (git archive), written by tests/bench_pairs.py. A "
                   "pair is won when the change's value is better; ties count for neither "
                   "side. Quartiles are statistics.quantiles(method='inclusive')."),
        "environment": {
            "machine": platform.machine(), "python": platform.python_version(),
            "runs": envs,
        },
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "workloads": workloads,
    }
    if args.gate_seconds:
        gate = {name: run(trees["change"], name, REFERENCE_SEED, args.gate_seconds, 0)
                for name in names}
        record["reference_gate"] = {
            name: {"correct": g["correct"], "attempted": g["attempted"], "failed": g["failed"]}
            for name, g in gate.items()}
    if args.trace_seed is not None:
        traced = {side: run(trees[side], claim_workload, args.trace_seed, seconds, 1)
                  for side in ("change", "parent")}
        record["trace"] = {"workload": claim_workload, "seed": args.trace_seed, **{
            side: {k: v["value"] for k, v in traced[side]["metrics"].items()}
            for side in ("parent", "change")}}
    if args.information:
        record["information"] = json.loads(Path(args.information).read_text())
    out = Path(args.out or ROOT / f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}; claim met: {record['claim']['result']['met']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
