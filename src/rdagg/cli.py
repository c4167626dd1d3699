"""Command-line surface binding the library into reproducible runs.

Every run writes a manifest (input digests, effective configuration, tool
version, seed) next to its outputs, so identical inputs and flags reproduce
identical artifacts byte for byte. Exit codes: 0 success, 1 computation
error (structured message on stderr), 2 usage error.

Settings are the fields of ``DesignConfig`` and ``DgpSpec``: a ``--config``
file value is read by the type of the field's default, and a flag whose dest
is the field name overrides it. An unknown key or an unparsable value is a
SchemaError (exit 1), never a setting silently left at its default.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace
from io import StringIO
from typing import Dict, List, Optional, Tuple

from . import __version__
from .design import KERNELS, DesignConfig, design_stack, parse_filter
from .diagnostics import (
    balance,
    counterfactual_path,
    points_from_stack,
    rd_plot_data,
    variance_decomposition,
)
from .errors import RdaError, SchemaError
from .estimators import collapsed_iv, equivalence, sharp_rd, stacked_iv, upper_iv
from .io import decode_utf8, load_design, load_numbers
from .simlab import (
    DEFAULT_H_GRID,
    IMPORTANCE_SCHEMES,
    MC_ESTIMATORS,
    OUTCOME_KINDS,
    DgpSpec,
    run_monte_carlo,
)

CONTROL_ALIASES = {"all": "all_three_rda", "total-weight": "total_weight_only", "none": "none"}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean '{raw}'")


def _parse_grid(raw: str) -> List[float]:
    """Comma-separated bandwidths; an empty string is no grid."""
    try:
        return [float(h) for h in raw.split(",")] if raw else []
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_range(raw: str) -> Tuple[int, int]:
    lo, sep, hi = raw.partition(":")
    if not sep:
        raise ValueError(f"expected lo:hi, got '{raw}'")
    return int(lo), int(hi)


# A file value is read by the type of its field's default ...
_PARSE_TYPE = {bool: _parse_bool, int: int, float: float, str: str}
# ... except for the fields whose default does not say how.
_PARSE_FIELD = {
    "fe_dimensions": lambda raw: tuple(d.strip() for d in raw.split(",") if d.strip()),
    "filters": lambda raw: tuple(parse_filter(f) for f in raw.split(",") if f.strip()),
    "j_range": _parse_range,
}
_CONFIG_KEYS = {f.name for cls in (DesignConfig, DgpSpec) for f in fields(cls)}


def load_config_file(path: str) -> Dict[str, str]:
    """Flat key=value text; '#' starts a comment; later keys win.

    Keys are the field names of ``DesignConfig`` and ``DgpSpec``; any other
    key raises SchemaError, listing every such key. The text is decoded as
    the CSV files are (``io.decode_utf8``), and "\n", "\r\n" and "\r" each
    end a line.
    """
    out: Dict[str, str] = {}
    with open(path, "rb") as fh:
        text = decode_utf8(fh.read(), path)
    for lineno, raw in enumerate(StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{lineno}: expected key=value, got '{raw.strip()}'")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    unknown = sorted(set(out) - _CONFIG_KEYS)
    if unknown:
        raise SchemaError(f"{path}: unknown config keys {unknown} "
                          "(keys are DesignConfig and DgpSpec field names)")
    return out


def _settings(cls, file_cfg: Dict[str, str], flags: dict):
    """A ``cls`` (DesignConfig or DgpSpec) from its fields: a flag whose
    argparse dest is the field name beats the config file value."""
    kwargs: dict = {}
    for f in fields(cls):
        if flags.get(f.name) is not None:
            kwargs[f.name] = flags[f.name]
        elif f.name in file_cfg:
            parse = _PARSE_FIELD.get(f.name) or _PARSE_TYPE[type(f.default)]
            try:
                kwargs[f.name] = parse(file_cfg[f.name])
            except ValueError as exc:
                raise SchemaError(f"config key '{f.name}': {exc}")
    return cls(**kwargs)


def _config_echo(config: DesignConfig) -> dict:
    echo = asdict(config)
    echo["filters"] = [f.describe() for f in config.filters]
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


def _bundle_command(sub, name: str, help: str, edges: bool = False) -> argparse.ArgumentParser:
    """A subcommand that reads a CSV bundle, with the design flags; only
    with ``edges`` does it take (and require) an edges file."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--units", required=True, help="units CSV path")
    p.add_argument("--subunits", required=True, help="subunits CSV path")
    if edges:
        p.add_argument("--edges", required=True, help="edges CSV path")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--kernel", choices=KERNELS, default=None)
    p.add_argument("--controls", choices=tuple(CONTROL_ALIASES), default=None)
    p.add_argument("--weight-cap", type=float, default=None,
                   help="drop units whose total subunit weight exceeds this cap")
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdagg",
        description="Aggregated regression-discontinuity estimation and simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("estimate-upper", "estimate-lower", "estimate-benchmark"):
        _bundle_command(sub, name, f"{name.replace('-', ' ')} on a bundle")

    p = _bundle_command(sub, "sharp-rd", "sharp local-linear estimate on subunit outcomes")
    p.add_argument("--outcome-attr", default="outcome",
                   help="attr_* column holding the per-subunit outcome")

    p = _bundle_command(sub, "verify-equivalence", "check the upper/lower identity")
    p.add_argument("--tolerance", type=float, default=1e-8)

    p = _bundle_command(sub, "spillover", "spillover estimators over an edges file", edges=True)
    p.add_argument("mode", choices=("bilateral", "collapsed", "upper"))

    p = sub.add_parser("simulate", help="Monte Carlo sweep over a bandwidth grid")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=".")
    p.add_argument("--outcome", dest="outcome_kind", choices=OUTCOME_KINDS, default=None)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--boot", type=int, default=300)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--noise-sd", type=float, default=None)
    p.add_argument("--n-units", type=int, default=None)
    p.add_argument("--n-subunits", dest="n_subunits_per_unit", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--importance", dest="importance_scheme", choices=IMPORTANCE_SCHEMES,
                   default=None)
    p.add_argument("--estimators", default=",".join(MC_ESTIMATORS))
    p.add_argument("--h-grid", type=_parse_grid, default=None,
                   help="comma-separated bandwidths")

    p = _bundle_command(sub, "balance", "covariate balance report")
    p.add_argument("--target", choices=("treatment", "instrument"), default="instrument")
    p.add_argument("--classical-f", action="store_true")

    p = _bundle_command(sub, "plot-data", "weight-balanced bins and fitted lines")
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


def _run(args) -> int:
    if hasattr(args, "out"):
        os.makedirs(args.out, exist_ok=True)
    file_cfg = load_config_file(args.config) if getattr(args, "config", None) else {}
    cmd = args.command

    if cmd == "simulate":
        spec = _settings(DgpSpec, file_cfg, vars(args))
        h_grid = args.h_grid or list(DEFAULT_H_GRID)
        estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
        summary = run_monte_carlo(spec, estimators=estimators, h_grid=h_grid,
                                  n_replications=args.reps, n_bootstrap=args.boot,
                                  seed=spec.seed, threads=args.threads)
        out_csv = os.path.join(args.out, "mc_summary.csv")
        with open(out_csv, "w", encoding="utf-8") as fh:
            fh.write(summary.to_csv())
        manifest_cfg = {"dgp": asdict(spec), "h_grid": h_grid, "estimators": estimators,
                        "reps": args.reps, "boot": args.boot, "truth": summary.truth,
                        "truth_se": summary.truth_se}
        failures = [{"estimator": c.estimator, "h": c.h, "reasons": c.fail_reasons}
                    for c in summary.cells if c.n_fail]
        write_manifest(args.out, cmd, [args.config] if args.config else [],
                       dict(manifest_cfg, failures=failures) if failures else manifest_cfg,
                       spec.seed)
        print(f"wrote {out_csv} ({len(summary.cells)} cells"
              f"{', high failure rate' if summary.high_failure else ''})")
        return 0

    if cmd == "var-decomp":
        records = list(zip(*load_numbers(args.micro, "cell", ("value", "weight"))))
        dec = variance_decomposition(records)
        _write_json(os.path.join(args.out, "decomposition.json"),
                    {"total": dec.total, "within": dec.within, "between": dec.between})
        write_manifest(args.out, cmd, [args.micro], {}, None)
        print(f"total={dec.total:.6g} within={dec.within:.6g} between={dec.between:.6g}")
        return 0

    if cmd == "counterfactual":
        periods, actual, shortfall = load_numbers(args.series, "period",
                                                  ("actual", "shortfall"))
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
    config = _settings(DesignConfig, file_cfg,
                       {**vars(args), "control_set": CONTROL_ALIASES.get(args.controls)})
    edges = getattr(args, "edges", None)
    design, report = load_design(args.units, args.subunits, edges_path=edges,
                                 weight_cap=args.weight_cap)
    inputs = [args.units, args.subunits, edges]
    manifest_cfg = {"design": _config_echo(config)}
    if report.messages:
        manifest_cfg["validation"] = report.messages

    fits = {
        "estimate-upper": lambda: upper_iv(design, config),
        "estimate-lower": lambda: stacked_iv(design, config),
        "estimate-benchmark": lambda: upper_iv(
            design, replace(config, control_set="total_weight_only"), specification="benchmark"
        ),
        "sharp-rd": lambda: sharp_rd(design, design.events.attribute(args.outcome_attr), config),
        "spillover bilateral": lambda: stacked_iv(design, config, spillover=True),
        "spillover collapsed": lambda: collapsed_iv(design, config),
        "spillover upper": lambda: upper_iv(design, config, spillover=True),
    }
    command = f"{cmd} {args.mode}" if cmd == "spillover" else cmd
    if command in fits:
        result = fits[command]()
        _write_json(os.path.join(args.out, "result.json"), result.to_dict())
        write_manifest(args.out, command, inputs, manifest_cfg, None)
        print(f"{result.specification}: beta={result.beta:.6g} se={result.robust_se:.6g}")
        return 0

    if cmd == "verify-equivalence":
        check = equivalence(design, config, tolerance=args.tolerance)
        _write_json(os.path.join(args.out, "equivalence.json"), check.to_dict())
        write_manifest(args.out, cmd, inputs, manifest_cfg, None)
        print(f"pass={str(check.passed).lower()} relative_gap={check.relative_gap:.3e}")
        return 0

    if cmd == "balance":
        bal = balance(design, config, target=args.target, classical_f=args.classical_f)
        payload = {**asdict(bal), "target": args.target}
        del payload["dropped_columns"]
        _write_json(os.path.join(args.out, "balance.json"), payload)
        write_manifest(args.out, cmd, inputs, manifest_cfg, None)
        print(f"partial_r2={bal.partial_r2:.6g} partial_f={bal.partial_f:.4g} "
              f"n_significant={bal.n_significant}")
        return 0

    if cmd == "plot-data":
        stack = design_stack(design, config)
        data = rd_plot_data(points_from_stack(stack, design, value=args.value),
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
