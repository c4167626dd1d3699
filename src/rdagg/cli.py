"""Command-line surface binding the library into reproducible runs.

Every run writes a manifest (input digests, effective configuration, tool
version, seed) next to its outputs, so identical inputs and flags reproduce
identical artifacts byte for byte. Exit codes: 0 success, 1 computation
error (structured message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Dict, List, Optional

from . import __version__
from .design import DesignConfig, build_stack, parse_filter
from .diagnostics import (
    balance_test,
    counterfactual_path,
    points_from_stack,
    rd_plot_data,
    variance_decomposition,
)
from .errors import RdaError, SchemaError
from .estimators import (
    estimate_lower,
    estimate_sharp_rd,
    estimate_spillover_bilateral,
    estimate_spillover_collapsed,
    estimate_spillover_upper,
    estimate_upper,
    verify_equivalence,
)
from .io import load_bundle
from .simlab import (
    DEFAULT_H_GRID,
    MC_ESTIMATORS,
    DgpSpec,
    run_monte_carlo,
)

CONTROL_ALIASES = {"all": "all_three_rda", "total-weight": "total_weight_only", "none": "none"}

_DESIGN_KEYS = {
    "bandwidth": float,
    "kernel": str,
    "cutoff_rule": str,
    "tie_policy": str,
    "instrument_basis": str,
    "control_set": str,
    "include_intercept": None,  # bool
    "lower_unit_weights": None,
    "fe_tol": float,
    "fe_max_iter": int,
    "weak_f_threshold": float,
}
_DGP_KEYS = {
    "n_units": int,
    "n_subunits_per_unit": int,
    "importance_scheme": str,
    "rho": float,
    "outcome_kind": str,
    "noise_sd": float,
    "effect_mean": float,
    "effect_sd": float,
    "seed": int,
}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise SchemaError(f"cannot parse boolean '{raw}'")


def load_config_file(path: str) -> Dict[str, str]:
    """Flat key=value text; '#' starts a comment; later keys win."""
    out: Dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{lineno}: expected key=value, got '{raw.strip()}'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def build_design_config(file_cfg: Dict[str, str], args) -> DesignConfig:
    kwargs: dict = {}
    for key, conv in _DESIGN_KEYS.items():
        if key in file_cfg:
            raw = file_cfg[key]
            kwargs[key] = _parse_bool(raw) if conv is None else conv(raw)
    if "fe_dimensions" in file_cfg:
        dims = [d.strip() for d in file_cfg["fe_dimensions"].split(",") if d.strip()]
        kwargs["fe_dimensions"] = tuple(dims)
    if "filters" in file_cfg:
        kwargs["filters"] = tuple(
            parse_filter(f) for f in file_cfg["filters"].split(",") if f.strip()
        )
    if getattr(args, "bandwidth", None) is not None:
        kwargs["bandwidth"] = args.bandwidth
    if getattr(args, "kernel", None) is not None:
        kwargs["kernel"] = args.kernel
    if getattr(args, "controls", None) is not None:
        kwargs["control_set"] = CONTROL_ALIASES[args.controls]
    return DesignConfig(**kwargs)


def build_dgp_spec(file_cfg: Dict[str, str], args) -> DgpSpec:
    kwargs: dict = {}
    for key, conv in _DGP_KEYS.items():
        if key in file_cfg:
            kwargs[key] = conv(file_cfg[key])
    if "j_range" in file_cfg:
        lo, _, hi = file_cfg["j_range"].partition(":")
        kwargs["j_range"] = (int(lo), int(hi))
    overrides = {
        "outcome_kind": getattr(args, "outcome", None),
        "noise_sd": getattr(args, "noise_sd", None),
        "n_units": getattr(args, "n_units", None),
        "n_subunits_per_unit": getattr(args, "n_subunits", None),
        "rho": getattr(args, "rho", None),
        "importance_scheme": getattr(args, "importance", None),
        "seed": getattr(args, "seed", None),
    }
    for key, val in overrides.items():
        if val is not None:
            kwargs[key] = val
    return DgpSpec(**kwargs)


def _config_echo(config: DesignConfig) -> dict:
    echo = asdict(config)
    echo["filters"] = [
        f.describe() if hasattr(f, "describe") else repr(f) for f in config.filters
    ]
    echo["fe_dimensions"] = list(config.fe_dimensions)
    return echo


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _jsonable(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_manifest(out_dir: str, command: str, inputs: List[str], config: dict, seed) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "inputs": {os.path.basename(p): _sha256(p) for p in inputs if p},
        "config": config,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _add_bundle_args(p: argparse.ArgumentParser, edges: bool = False):
    p.add_argument("--units", required=True, help="units CSV path")
    p.add_argument("--subunits", required=True, help="subunits CSV path")
    if edges:
        p.add_argument("--edges", required=True, help="edges CSV path")
    else:
        p.add_argument("--edges", default=None, help="optional edges CSV path")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--kernel", choices=("uniform", "triangular"), default=None)
    p.add_argument("--controls", choices=tuple(CONTROL_ALIASES), default=None)
    p.add_argument("--weight-cap", type=float, default=None,
                   help="drop units whose total subunit weight exceeds this cap")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdagg",
        description="Aggregated regression-discontinuity estimation and simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("estimate-upper", "estimate-lower", "estimate-benchmark"):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} on a bundle")
        _add_bundle_args(p)
        _add_common(p)

    p = sub.add_parser("sharp-rd", help="sharp local-linear estimate on subunit outcomes")
    _add_bundle_args(p)
    _add_common(p)
    p.add_argument("--outcome-attr", default="outcome",
                   help="attr_* column holding the per-subunit outcome")

    p = sub.add_parser("verify-equivalence", help="check the upper/lower identity")
    _add_bundle_args(p)
    _add_common(p)
    p.add_argument("--tolerance", type=float, default=1e-8)

    p = sub.add_parser("spillover", help="spillover estimators over an edges file")
    p.add_argument("mode", choices=("bilateral", "collapsed", "upper"))
    _add_bundle_args(p, edges=True)
    _add_common(p)

    p = sub.add_parser("simulate", help="Monte Carlo sweep over a bandwidth grid")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=".")
    p.add_argument("--outcome", choices=(
        "linear", "symmetric_quadratic", "kinked_quadratic",
        "single_subunit", "heterogeneous_effects"), default=None)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--boot", type=int, default=300)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--noise-sd", type=float, default=None)
    p.add_argument("--n-units", type=int, default=None)
    p.add_argument("--n-subunits", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--importance", choices=("equal", "dirichlet_random", "unit_sum_one"),
                   default=None)
    p.add_argument("--estimators", default=",".join(MC_ESTIMATORS))
    p.add_argument("--h-grid", default=None, help="comma-separated bandwidths")

    p = sub.add_parser("balance", help="covariate balance report")
    _add_bundle_args(p)
    _add_common(p)
    p.add_argument("--target", choices=("treatment", "instrument"), default="instrument")
    p.add_argument("--classical-f", action="store_true")

    p = sub.add_parser("plot-data", help="weight-balanced bins and fitted lines")
    _add_bundle_args(p)
    _add_common(p)
    p.add_argument("--value", choices=("outcome", "treatment", "instrument"),
                   default="outcome")
    p.add_argument("--bins", type=int, default=20)

    p = sub.add_parser("var-decomp", help="within/between variance decomposition")
    p.add_argument("--micro", required=True, help="CSV with columns cell,value,weight")
    p.add_argument("--out", default=".")

    p = sub.add_parser("counterfactual", help="counterfactual path from a beta and shortfalls")
    p.add_argument("--series", required=True,
                   help="CSV with columns period,actual,shortfall")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--beta-lo", type=float, required=True)
    p.add_argument("--beta-hi", type=float, required=True)
    p.add_argument("--per-period", action="store_true",
                   help="shortfall column is per period; cumulate it")
    p.add_argument("--out", default=".")
    return parser


def _load(args):
    bundle = load_bundle(
        args.units,
        args.subunits,
        edges_path=getattr(args, "edges", None),
        weight_cap=getattr(args, "weight_cap", None),
    )
    return bundle


def _read_micro(path: str):
    from .io import _columns, _parse_float, _read_rows

    header, rows, lines = _read_rows(path)
    i_cell, i_value, i_weight = _columns(header, path, ("cell", "value", "weight"))
    return [
        (row[i_cell], _parse_float(row[i_value], path, line, "value"),
         _parse_float(row[i_weight], path, line, "weight"))
        for row, line in zip(rows, lines)
    ]


def _read_series(path: str):
    from .io import _columns, _parse_float, _read_rows

    header, rows, lines = _read_rows(path)
    i_period, i_actual, i_shortfall = _columns(header, path, ("period", "actual", "shortfall"))
    periods = [row[i_period] for row in rows]
    actual = [_parse_float(row[i_actual], path, line, "actual") for row, line in zip(rows, lines)]
    shortfall = [
        _parse_float(row[i_shortfall], path, line, "shortfall")
        for row, line in zip(rows, lines)
    ]
    return periods, actual, shortfall


def _run(args) -> int:
    if hasattr(args, "out"):
        os.makedirs(args.out, exist_ok=True)
    file_cfg = load_config_file(args.config) if getattr(args, "config", None) else {}
    cmd = args.command

    if cmd == "simulate":
        spec = build_dgp_spec(file_cfg, args)
        h_grid = (
            [float(x) for x in args.h_grid.split(",")] if args.h_grid else list(DEFAULT_H_GRID)
        )
        estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
        seed = args.seed if args.seed is not None else spec.seed
        summary = run_monte_carlo(
            spec,
            estimators=estimators,
            h_grid=h_grid,
            n_replications=args.reps,
            n_bootstrap=args.boot,
            seed=seed,
            threads=args.threads,
        )
        out_csv = os.path.join(args.out, "mc_summary.csv")
        with open(out_csv, "w", encoding="utf-8") as fh:
            fh.write(summary.to_csv())
        write_manifest(
            args.out, cmd, [args.config] if args.config else [],
            {"dgp": asdict(spec), "h_grid": h_grid, "estimators": estimators,
             "reps": args.reps, "boot": args.boot},
            seed,
        )
        print(f"wrote {out_csv} ({len(summary.cells)} cells"
              f"{', high failure rate' if summary.high_failure else ''})")
        return 0

    if cmd == "var-decomp":
        records = _read_micro(args.micro)
        dec = variance_decomposition(records)
        _write_json(os.path.join(args.out, "decomposition.json"),
                    {"total": dec.total, "within": dec.within, "between": dec.between})
        write_manifest(args.out, cmd, [args.micro], {}, None)
        print(f"total={dec.total:.6g} within={dec.within:.6g} between={dec.between:.6g}")
        return 0

    if cmd == "counterfactual":
        periods, actual, shortfall = _read_series(args.series)
        path = counterfactual_path(
            actual, shortfall, args.beta, (args.beta_lo, args.beta_hi),
            cumulative=not args.per_period,
        )
        rows = ["period,actual,counterfactual,ci_lo,ci_hi"]
        for p, a, c, lo, hi in zip(periods, path.actual, path.counterfactual,
                                   path.ci_lo, path.ci_hi):
            rows.append(f"{p},{a!r},{c!r},{lo!r},{hi!r}")
        with open(os.path.join(args.out, "counterfactual.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        _write_json(
            os.path.join(args.out, "counterfactual.json"),
            {"beta": path.beta, "beta_ci": list(path.beta_ci),
             "contribution": path.contribution,
             "contribution_ci": None if path.contribution_ci is None else list(path.contribution_ci),
             "notes": path.notes},
        )
        write_manifest(args.out, cmd, [args.series],
                       {"beta": args.beta, "beta_ci": [args.beta_lo, args.beta_hi],
                        "cumulative": not args.per_period}, None)
        contrib = "undefined" if path.contribution is None else f"{path.contribution:.4f}"
        print(f"contribution={contrib}")
        return 0

    # The remaining commands consume a bundle.
    config = build_design_config(file_cfg, args)
    bundle = _load(args)
    inputs = [args.units, args.subunits] + ([args.edges] if getattr(args, "edges", None) else [])
    manifest_cfg = {"design": _config_echo(config)}
    if bundle.report.messages:
        manifest_cfg["validation"] = bundle.report.messages

    if cmd in ("estimate-upper", "estimate-lower", "estimate-benchmark"):
        if cmd == "estimate-upper":
            result = estimate_upper(bundle.units, bundle.subunits, config)
        elif cmd == "estimate-lower":
            result = estimate_lower(bundle.units, bundle.subunits, config)
        else:
            from dataclasses import replace as _replace

            result = estimate_upper(
                bundle.units, bundle.subunits,
                _replace(config, control_set="total_weight_only"),
                specification="benchmark",
            )
        _write_json(os.path.join(args.out, "result.json"), result.to_dict())
        write_manifest(args.out, cmd, inputs, manifest_cfg, None)
        print(f"{result.specification}: beta={result.beta:.6g} se={result.robust_se:.6g}")
        return 0

    if cmd == "sharp-rd":
        outcomes = {
            s.subunit_id: s.attributes[args.outcome_attr]
            for s in bundle.subunits
            if args.outcome_attr in s.attributes
        }
        result = estimate_sharp_rd(bundle.subunits, outcomes, config)
        _write_json(os.path.join(args.out, "result.json"), result.to_dict())
        write_manifest(args.out, cmd, inputs, manifest_cfg, None)
        print(f"sharp_rd: beta={result.beta:.6g} se={result.robust_se:.6g}")
        return 0

    if cmd == "verify-equivalence":
        report = verify_equivalence(bundle.units, bundle.subunits, config,
                                    tolerance=args.tolerance)
        _write_json(os.path.join(args.out, "equivalence.json"), report.to_dict())
        write_manifest(args.out, cmd, inputs, manifest_cfg, None)
        print(f"pass={str(report.passed).lower()} relative_gap={report.relative_gap:.3e}")
        return 0

    if cmd == "spillover":
        if bundle.edges is None:
            raise SchemaError("spillover estimation requires an edges file")
        if args.mode == "bilateral":
            result = estimate_spillover_bilateral(bundle.edges, bundle.units,
                                                  bundle.subunits, config)
        elif args.mode == "collapsed":
            result = estimate_spillover_collapsed(bundle.edges, bundle.units,
                                                  bundle.subunits, config)
        else:
            result = estimate_spillover_upper(bundle.edges, bundle.units,
                                              bundle.subunits, config)
        _write_json(os.path.join(args.out, "result.json"), result.to_dict())
        write_manifest(args.out, f"{cmd} {args.mode}", inputs, manifest_cfg, None)
        print(f"{result.specification}: beta={result.beta:.6g} se={result.robust_se:.6g}")
        return 0

    if cmd == "balance":
        report = balance_test(bundle.units, bundle.subunits, config,
                              target=args.target, classical_f=args.classical_f)
        payload = {
            "target": args.target,
            "covariates": {
                lab: {"coefficient": row.coefficient, "robust_se": row.robust_se,
                      "significant": row.significant}
                for lab, row in report.covariates.items()
            },
            "n_significant": report.n_significant,
            "partial_r2": report.partial_r2,
            "partial_f": report.partial_f,
            "partial_f_pvalue": report.partial_f_pvalue,
            "control_set": report.control_set,
            "n_obs": report.n_obs,
            "n_dropped": report.n_dropped,
        }
        _write_json(os.path.join(args.out, "balance.json"), payload)
        write_manifest(args.out, cmd, inputs, manifest_cfg, None)
        print(f"partial_r2={report.partial_r2:.6g} partial_f={report.partial_f:.4g} "
              f"n_significant={report.n_significant}")
        return 0

    if cmd == "plot-data":
        stack = build_stack(bundle.units, bundle.subunits, config)
        data = rd_plot_data(points_from_stack(stack, bundle.subunits, value=args.value),
                            n_bins_per_side=args.bins, cutoff_rule=config.cutoff_rule)
        lines = ["side,running,value,weight,n"]
        for b in data.bins:
            lines.append(f"{b.side},{b.running!r},{b.value!r},{b.weight!r},{b.n_obs}")
        with open(os.path.join(args.out, "bins.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        _write_json(
            os.path.join(args.out, "lines.json"),
            {"left": {"intercept": data.left_line[0], "slope": data.left_line[1]},
             "right": {"intercept": data.right_line[0], "slope": data.right_line[1]},
             "jump": data.jump, "notices": data.notices},
        )
        write_manifest(args.out, cmd, inputs, manifest_cfg, None)
        print(f"wrote {len(data.bins)} bins; jump={data.jump:.6g}")
        return 0

    raise RdaError(f"unhandled command '{cmd}'")


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except RdaError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "type": type(exc).__name__}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "type": "OSError"}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
