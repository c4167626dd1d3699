"""Record the seed-0 reference outputs that run.py checks ops against.

Usage (from the repository root): python3 perfbench/make_reference.py

Runs the first few ops of every workload on seed 0 and writes their output
numbers to reference.json beside this file. Run it only when the program's
numbers are meant to change.
"""

import json
import shutil
import sys

import run
import workloads

OPS = {"cli-bundle-20k": 9, "mc-sweep-1k": 8, "fe-spillover-2k": 8}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    env = run.child_env()
    reference = {}
    for name, n_ops in OPS.items():
        workdir = run.STATE_DIR / "work" / f"reference-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = workloads.WORKLOADS[name](run.REFERENCE_SEED, workdir, env)
            wl.prepare()
            wl.program_setup()
            reference[name] = []
            for k in range(n_ops):
                _, output, _, _ = wl.run_op(k, traced=False)
                problems = wl.check(k, output)
                if problems:
                    sys.stderr.write(f"{name} op {k}: {problems}\n")
                    return 1
                reference[name].append(workloads.reference_values(output))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
