"""rdagg benchmark: one seeded workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and defined in workloads.py. One
client runs ops in a closed loop, one at a time, until ``--seconds`` have
passed. With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` each op runs twice, once plain and once with the span wrappers
of tracer.py installed, and the run reports the per-layer metrics, including
the tracing overhead. Every op's output is checked; the last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 only when every op was correct.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-8
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    try:
        # The ceiling keeps git from reporting a repository that merely contains ROOT.
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                             ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "git_sha": sha,
        "source_sha256": tree_digest(SRC / "rdagg"),
        "benchmark_sha256": tree_digest(Path(__file__).resolve().parent),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": int(BLAS_THREADS),
    }


def cold_import_seconds(env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import rdagg"], env=env, check=True, timeout=120)
    return time.perf_counter() - start


def import_breakdown(env: dict) -> dict:
    """Seconds spent importing numpy, scipy, rdagg and rdagg.diagnostics.

    From ``-X importtime``: each figure is the cumulative time of the
    outermost imports of that package, wherever they happen, so scipy's time
    is also inside rdagg.diagnostics' and both are inside rdagg's.
    ``import.rdagg.self_s`` sums the self time of rdagg's own modules.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import rdagg"],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    roots, pending = [], []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, field = line[len("import time:"):].split("|", 2)
        name = field.strip()
        level = len(field) - len(field.lstrip())
        node = {"name": name, "self": int(own), "cum": int(cumulative), "children": []}
        while pending and pending[-1][0] > level:
            node["children"].insert(0, pending.pop()[1])
        pending.append((level, node))
    roots = [node for _, node in pending]

    def outermost(nodes, prefix):
        total = 0
        for node in nodes:
            if node["name"] == prefix or node["name"].startswith(prefix + "."):
                total += node["cum"]
            else:
                total += outermost(node["children"], prefix)
        return total

    def own_time(nodes, prefix):
        return sum(
            (node["self"] if node["name"] == prefix or node["name"].startswith(prefix + ".")
             else 0) + own_time(node["children"], prefix)
            for node in nodes
        )

    return {
        "import.numpy_s": outermost(roots, "numpy") / 1e6,
        "import.scipy_s": outermost(roots, "scipy") / 1e6,
        "import.rdagg_s": outermost(roots, "rdagg") / 1e6,
        "import.rdagg.diagnostics_s": outermost(roots, "rdagg.diagnostics") / 1e6,
        "import.rdagg.self_s": own_time(roots, "rdagg") / 1e6,
    }


def tail(times: list):
    """Highest percentile with at least ten ops beyond it, or None."""
    n = len(times)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return p, statistics.quantiles(times, n=1000, method="inclusive")[int(p * 10) - 1]
    return None


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


def reference_problems(workload: str, seed: int, k: int, output) -> list:
    if seed != REFERENCE_SEED:
        return []
    with open(REFERENCE, encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    if k >= len(expected):
        return []
    got = workloads.reference_values(output)
    if len(got) != len(expected[k]) or not all(map(close, got, expected[k])):
        return [f"op {k} output differs from the seed-{REFERENCE_SEED} reference"]
    return []


def repeat_problems(key: str, digest: str, counts: dict) -> dict:
    """Compare input digest and per-op counts with earlier runs of this seed and source.

    Returns {op: problem}; op None stands for every op (the inputs differ).
    """
    path = STATE_DIR / "repeat" / f"{key}.json"
    state = json.loads(path.read_text()) if path.exists() else {"digest": digest, "ops": {}}
    problems = {}
    if state["digest"] != digest:
        problems[None] = "generated inputs differ from an earlier run on this seed"
    for k, now in counts.items():
        before = state["ops"].setdefault(str(k), now)
        if before != now:
            diff = sorted(n for n in now if now[n] != before.get(n))
            problems[k] = f"op {k}: counts differ from an earlier run on this seed: {diff}"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(state, sort_keys=True))
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rdagg" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no rdagg sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    env = child_env()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "rdagg")], env=env,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)

    workdir = STATE_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, env, workdir) -> int:
    info = environment()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, env)
    digest = wl.prepare()

    imports = [cold_import_seconds(env) for _ in range(SETUP_REPEATS)]
    program = [wl.program_setup() for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(imports) + statistics.median(program)
    setup_layers = None
    if args.trace:
        recorder = tracer.Recorder(op=-1)
        undo = tracer.install(recorder)
        try:
            wl.program_setup()
        finally:
            undo()
        setup_layers = tracer.op_layer_metrics(recorder.spans, recorder.counts)

    problems, counts, outputs = [], {}, []
    plain, traced, layer_ops = [], [], []
    attempted = failed = 0
    child_peaks = []
    start = time.perf_counter()
    k = 0
    # A run ends after a whole number of the workload's op groups (see workloads.py).
    while k % wl.group or (time.perf_counter() - start < args.seconds and k < wl.max_ops):
        # A traced run runs each op plain and traced, alternating which goes first.
        modes = (False,) if not args.trace else ((False, True) if k % 2 == 0 else (True, False))
        for with_trace in modes:
            attempted += 1
            try:
                seconds, output, child_peak, recorder = wl.run_op(k, with_trace)
                bad = wl.check(k, output) + reference_problems(wl.name, args.seed, k, output)
            except Exception as exc:  # an op that raises counts as failed
                seconds, output, child_peak, recorder = None, None, None, None
                bad = [f"{type(exc).__name__}: {exc}"]
            if bad:
                failed += 1
                problems += [f"op {k}: {b}" for b in bad]
                continue
            (traced if with_trace else plain).append(seconds)
            outputs.append({"op": k, "traced": with_trace, "seconds": seconds, "output": output})
            if child_peak is not None:
                child_peaks.append(child_peak)
            if recorder is not None:
                layer = tracer.op_layer_metrics(recorder.spans, recorder.counts)
                layer_ops.append((layer, recorder.spans))
                counts[k] = {name: layer[name] for name in tracer.EXACT_COUNTS}
        k += 1
    elapsed = time.perf_counter() - start
    # A child's peak depends on its command and bandwidth, so take the median op's.
    peak_mb = (statistics.median(child_peaks) if child_peaks
               else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    key = f"{wl.name}-{args.seed}-{info['source_sha256'][:12]}-{info['benchmark_sha256'][:12]}"
    repeats = repeat_problems(key, digest, counts)
    if repeats:
        problems += list(repeats.values())
        failed = attempted if None in repeats else min(attempted, failed + len(repeats))
    correct = failed == 0 and not problems

    if args.trace:
        metrics = trace_metrics(env, layer_ops, plain, traced)
        metrics["setup.io.load_bundle_s"] = {"value": setup_layers["io.load_bundle_s"],
                                             "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(plain) / elapsed, "unit": "1/s"},
            "op_s_p50": {"value": statistics.median(plain) if plain else None, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": info, "inputs_sha256": digest, "setup": {"import_s": imports,
        "program_s": program}, "ops": outputs, "problems": problems, "metrics": metrics,
    }
    out_dir = STATE_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.trace:
        spans = [span for _, op_spans in layer_ops for span in op_spans]
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans))

    report(wl.name, args, info, setup_s, plain, elapsed, peak_mb, attempted, failed, problems)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def trace_metrics(env, layer_ops, plain, traced) -> dict:
    def unit(name):
        return "s" if name.endswith("_s") else "B" if ".bytes_" in name else "count"

    breakdown = [import_breakdown(env) for _ in range(SETUP_REPEATS)]
    metrics = {name: {"value": statistics.median(b[name] for b in breakdown), "unit": "s"}
               for name in breakdown[0]}
    n = max(len(layer_ops), 1)
    for name, _, _ in tracer.LAYER_METRICS:
        total = sum(layer[name] for layer, _ in layer_ops)
        metrics[name] = {"value": total / n, "unit": unit(name)}
    overhead = (statistics.median(traced) / statistics.median(plain) - 1.0
                if plain and traced else None)
    metrics["trace.op_s"] = {"value": statistics.median(traced) if traced else None,
                             "unit": "s"}
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


def report(name, args, info, setup_s, plain, elapsed, peak_mb, attempted, failed, problems):
    n = len(plain)
    tail_text = "n/a (needs at least 20 ops)"
    if tail(plain):
        p, value = tail(plain)
        tail_text = f"{value:.4f} s at p{p:g} over {n} ops"
    print(f"workload {name} seed {args.seed} trace {args.trace}: {n} ops in {elapsed:.1f} s")
    print(f"  setup_s      {setup_s:.4f} s")
    print(f"  ops_per_s    {n / elapsed:.4f} 1/s")
    print(f"  op_s_p50     {statistics.median(plain) if plain else float('nan'):.4f} s")
    print(f"  op_s_tail    {tail_text}")
    print(f"  peak_rss_mb  {peak_mb:.1f} MB")
    print(f"  fail_ratio   {failed / max(attempted, 1):.4f} ({failed} of {attempted} ops)")
    print("  environment  " + json.dumps(info, sort_keys=True))
    for problem in problems:
        print(f"  FAIL {problem}")


if __name__ == "__main__":
    sys.exit(main())
