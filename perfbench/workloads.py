"""The three seeded workloads: input generation, one op, and its output check.

Every input comes from the seed the benchmark is given; the program sees
only the generated inputs. Bandwidths are drawn in [0.3, 1.0] as antithetic
pairs: draws 2j and 2j+1 take u and 1 - u of the interval, where u runs
through a van der Corput sequence under a seeded random shift. Each draw is
uniform on the interval. An FE op fits at both draws of a pair, so every
run's FE bandwidths sit symmetrically about the middle of the interval and
the median op of a run does not hinge on which draws it happened to get.
CLI ops rotate through three commands, one draw per rotation, and a run
completes whole rotations, so every CLI run times each command equally often.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import tracer

HERE = Path(__file__).resolve().parent

H_LOW, H_HIGH = 0.3, 1.0
EQUIVALENCE_TOL = 1e-8
CHILD_TIMEOUT_S = 150


def bandwidths(seed: int, n_ops: int) -> list:
    shift = float(np.random.default_rng([seed, 101]).random())
    out = []
    for j in range((n_ops + 1) // 2):
        radical, base, rest = 0.0, 0.5, j
        while rest:
            radical += base * (rest & 1)
            rest >>= 1
            base /= 2
        u = (radical + shift) % 1.0
        out += [H_LOW + (H_HIGH - H_LOW) * u, H_LOW + (H_HIGH - H_LOW) * (1.0 - u)]
    return out[:n_ops]


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class Workload:
    """One workload bound to a seed and a scratch directory.

    ``prepare`` writes the inputs and returns their digest; ``program_setup``
    runs the program's one-time set-up and returns its duration;
    ``run_op`` returns (seconds, output, peak RSS in MB or None, recorder);
    ``check`` returns a list of problems with an op's output.
    """

    name = ""
    max_ops = 10_000
    group = 1  # a run ends after a whole number of groups of this many ops

    def __init__(self, seed: int, workdir: Path, env: dict):
        self.seed, self.workdir, self.env = seed, workdir, env

    def prepare(self) -> str:
        raise NotImplementedError

    def program_setup(self) -> float:
        return 0.0

    def run_op(self, k: int, traced: bool):
        raise NotImplementedError

    def check(self, k: int, output) -> list:
        raise NotImplementedError

    def _in_process(self, k: int, traced: bool, fn):
        recorder = tracer.Recorder(op=k) if traced else None
        undo = tracer.install(recorder) if traced else None
        try:
            start = time.perf_counter()
            output = fn()
            seconds = time.perf_counter() - start
        finally:
            if undo is not None:
                undo()
        return seconds, output, None, recorder


class CliBundle(Workload):
    """Fresh-process CLI runs on a 20,000-unit x 10-event CSV bundle."""

    name = "cli-bundle-20k"
    commands = ("estimate-upper", "estimate-lower", "verify-equivalence")
    group = len(commands)

    def prepare(self) -> str:
        import rdagg

        units, subunits, _ = rdagg.generate_dgp(rdagg.DgpSpec(
            n_units=20_000, n_subunits_per_unit=10, importance_scheme="dirichlet_random",
            outcome_kind="linear", noise_sd=0.1, seed=self.seed,
        ))
        ctrl = np.random.default_rng([self.seed, 102]).standard_normal(len(units))
        units = [replace(u, extra_controls={"x1": float(c)}) for u, c in zip(units, ctrl)]
        self.units_csv = self.workdir / "units.csv"
        self.subunits_csv = self.workdir / "subunits.csv"
        rdagg.write_bundle(rdagg.InputBundle(units, subunits), str(self.units_csv),
                           str(self.subunits_csv))
        self.h = bandwidths(self.seed, self.max_ops)
        return file_digest([self.units_csv, self.subunits_csv])

    def op_command(self, k: int) -> str:
        return self.commands[k % len(self.commands)]

    def run_op(self, k: int, traced: bool):
        out = self.workdir / f"out-{k % 2}"
        args = [self.op_command(k), "--units", str(self.units_csv),
                "--subunits", str(self.subunits_csv),
                "--bandwidth", repr(self.h[k // self.group]),
                "--out", str(out)]
        trace_file = self.workdir / "child-trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(trace_file)] + args
        else:
            argv = [sys.executable, "-m", "rdagg.cli"] + args
        with open(self.workdir / "child.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        peak_mb = usage.ru_maxrss / 1024.0
        output = {"exit": proc.returncode}
        name = "equivalence.json" if self.op_command(k) == "verify-equivalence" else "result.json"
        if proc.returncode == 0:
            with open(out / name, encoding="utf-8") as fh:
                payload = json.load(fh)
            if name == "result.json":
                output.update(beta=payload["beta"], se=payload["robust_se"])
            else:
                output.update(beta=payload["beta_upper"],
                              beta_lower=payload["beta_lower_equivalent"],
                              relative_gap=payload["relative_gap"], passed=payload["pass"])
        recorder = None
        if traced and proc.returncode == 0:
            with open(trace_file, encoding="utf-8") as fh:
                dump = json.load(fh)
            recorder = tracer.Recorder(op=k)
            recorder.spans = [s[:4] + [k] for s in dump["spans"]]
            recorder.counts.update(dump["counts"])
        return seconds, output, peak_mb, recorder

    def check(self, k: int, output) -> list:
        if output["exit"] != 0:
            return [f"exit code {output['exit']}"]
        if "passed" in output:
            problems = [] if finite(output["beta"], output["beta_lower"]) else ["non-finite beta"]
            if output["passed"] is not True or not output["relative_gap"] <= EQUIVALENCE_TOL:
                problems.append(f"equivalence failed: gap {output['relative_gap']}")
            return problems
        return [] if finite(output["beta"], output["se"]) else ["non-finite beta or SE"]


class McSweep(Workload):
    """One run_monte_carlo call per op on a 1,000-unit x 5-event design."""

    name = "mc-sweep-1k"
    replications = 10
    bootstrap = 300

    def prepare(self) -> str:
        import rdagg.simlab as simlab

        self.simlab = simlab
        self.spec = simlab.DgpSpec(n_units=1000, n_subunits_per_unit=5, outcome_kind="linear")
        seeds = np.random.SeedSequence([self.seed, 103]).generate_state(self.max_ops)
        self.op_seeds = [int(s) for s in seeds]
        params = {"spec": repr(self.spec), "estimators": list(simlab.MC_ESTIMATORS),
                  "h_grid": list(simlab.DEFAULT_H_GRID), "reps": self.replications,
                  "boot": self.bootstrap, "seeds": self.op_seeds}
        return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()

    def run_op(self, k: int, traced: bool):
        def op():
            summary = self.simlab.run_monte_carlo(
                self.spec, estimators=self.simlab.MC_ESTIMATORS,
                h_grid=self.simlab.DEFAULT_H_GRID, n_replications=self.replications,
                n_bootstrap=self.bootstrap, seed=self.op_seeds[k], threads=1,
            )
            return {"cells": [[c.estimator, c.h, c.median_bias, c.sd, c.ci_lo, c.ci_hi, c.n_ok,
                               c.n_fail] for c in summary.cells]}

        return self._in_process(k, traced, op)

    def check(self, k: int, output) -> list:
        problems = []
        expected = len(self.simlab.MC_ESTIMATORS) * len(self.simlab.DEFAULT_H_GRID)
        if len(output["cells"]) != expected:
            problems.append(f"{len(output['cells'])} cells, expected {expected}")
        for name, h, bias, sd, lo, hi, n_ok, n_fail in output["cells"]:
            if n_fail or n_ok != self.replications or not finite(bias, sd, lo, hi):
                problems.append(f"cell {name} h={h}: n_ok={n_ok} n_fail={n_fail}")
        return problems


class FeSpillover(Workload):
    """Spillover upper + bilateral with two-way fixed effects on a 2,000-unit panel.

    One op fits both estimators at the two bandwidths of an antithetic pair,
    h and 1.3 - h. The time of one fit grows about 2.5-fold across the
    interval, with a step near its middle, so the median of single fits over
    a run would swing with the seeded shift; the time of a pair moves by a
    few percent.

    Each event links to its own unit and two other random units. States are
    unbalanced (Zipf sizes over 50) and 85% of units draw their industry from
    their state's block of 8 of the 400 industries, so the two fixed-effect
    dimensions are strongly correlated and alternating projections converge
    slowly. How slowly depends on the exact layout of the pairs that are
    close at a bandwidth, and swings by half from one random panel to the
    next, so the panel (running variables, importance, fixed-effect keys and
    edges) is drawn from a fixed seed and every run measures the same
    structure. The run's seed draws the outcomes: noise and state and
    industry shifts.
    """

    name = "fe-spillover-2k"
    n_units, n_events, n_states, block = 2000, 5, 50, 8
    panel_seed = 0
    fe_dimensions = ("state", "industry")

    def prepare(self) -> str:
        import rdagg

        self.rdagg = rdagg
        units, subunits, _ = rdagg.generate_dgp(rdagg.DgpSpec(
            n_units=self.n_units, n_subunits_per_unit=self.n_events,
            importance_scheme="equal", outcome_kind="linear", seed=self.panel_seed,
        ))
        panel = np.random.default_rng([self.panel_seed, 104])
        n, n_ind = self.n_units, self.n_states * self.block
        size = 1.0 / np.arange(1, self.n_states + 1)
        state = panel.choice(self.n_states, size=n, p=size / size.sum())
        local = state * self.block + panel.integers(0, self.block, size=n)
        industry = np.where(panel.random(n) < 0.85, local, panel.integers(0, n_ind, size=n))
        rng = np.random.default_rng([self.seed, 104])
        shift = 0.5 * rng.standard_normal(self.n_states)[state] \
            + 0.5 * rng.standard_normal(n_ind)[industry] + 0.1 * rng.standard_normal(n)
        units = [
            replace(u, outcome=u.outcome + float(shift[i]),
                    fe_keys={"state": f"s{state[i]:02d}", "industry": f"i{industry[i]:03d}"})
            for i, u in enumerate(units)
        ]
        # Two distinct other units per event, never its own unit.
        own = np.repeat(np.arange(n), self.n_events)
        a = panel.integers(0, n - 1, size=own.size)
        a += a >= own
        lo, hi = np.minimum(own, a), np.maximum(own, a)
        b = panel.integers(0, n - 2, size=own.size)
        b += b >= lo
        b += b >= hi
        ids = [u.unit_id for u in units]
        edges = []
        for j, s in enumerate(subunits):
            edges += [(s.unit_id, s.subunit_id), (ids[a[j]], s.subunit_id),
                      (ids[b[j]], s.subunit_id)]
        self.paths = [self.workdir / f for f in ("units.csv", "subunits.csv", "edges.csv")]
        rdagg.write_bundle(
            rdagg.InputBundle(units, subunits, rdagg.SpilloverGraph(tuple(edges))),
            *(str(p) for p in self.paths),
        )
        self.h = bandwidths(self.seed, 2 * self.max_ops)
        return file_digest(self.paths)

    def program_setup(self) -> float:
        start = time.perf_counter()
        self.bundle = self.rdagg.load_bundle(*(str(p) for p in self.paths))
        return time.perf_counter() - start

    def run_op(self, k: int, traced: bool):
        import rdagg.estimators as estimators

        b = self.bundle
        configs = [self.rdagg.DesignConfig(bandwidth=h, fe_dimensions=self.fe_dimensions)
                   for h in self.h[2 * k:2 * k + 2]]

        def op():
            output = {}
            for j, config in enumerate(configs):
                upper = estimators.estimate_spillover_upper(b.edges, b.units, b.subunits, config)
                pairs = estimators.estimate_spillover_bilateral(b.edges, b.units, b.subunits,
                                                                config)
                output.update({f"beta_{j}": upper.beta, f"se_{j}": upper.robust_se,
                               f"beta_bilateral_{j}": pairs.beta,
                               f"se_bilateral_{j}": pairs.robust_se})
            return output

        return self._in_process(k, traced, op)

    def check(self, k: int, output) -> list:
        return [] if finite(*output.values()) else ["non-finite beta or SE"]


WORKLOADS = {w.name: w for w in (CliBundle, McSweep, FeSpillover)}


def reference_values(output) -> list:
    """The numbers of an op's output that the seed-0 reference pins."""
    if "cells" in output:
        return [v for cell in output["cells"] for v in cell[2:6]]
    return [v for key, v in sorted(output.items()) if key.startswith(("beta", "se"))]
