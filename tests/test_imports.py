"""The cold import path stays free of scipy and hashlib, the public
namespace is pinned, and the benchmark reaches only names the package has.

scipy is needed only for the balance-test p-values and is imported there;
importing it at module level would add about a second to every CLI run.
Those p-values take ``scipy.special`` alone: ``scipy.stats`` would add
about another second to every ``balance`` run.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import rdagg

SRC = str(Path(rdagg.__file__).resolve().parents[1])

REPORT = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"

SCRIPTS = {
    # hashlib loads OpenSSL, 3-4 ms of cold import that only a digest needs
    "import rdagg": "import rdagg, sys\nassert 'hashlib' not in sys.modules\n" + REPORT,
    "python -m rdagg.cli --help": (
        "import runpy, sys\n"
        "sys.argv = ['rdagg', '--help']\n"
        "try:\n"
        "    runpy.run_module('rdagg.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        + REPORT
    ),
}


@pytest.mark.parametrize("entry", sorted(SCRIPTS))
def test_entry_point_loads_no_scipy(entry):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPTS[entry]], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


@pytest.mark.parametrize("classical_f", [False, True])
def test_balance_loads_no_scipy_stats(classical_f):
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from rdagg import Design, DesignConfig, SubunitRecord, UnitRecord, balance\n"
        "rng = np.random.default_rng(4)\n"
        "units = [UnitRecord(f'u{i}', 0.0, extra_controls={'c': float(rng.normal())})\n"
        "         for i in range(60)]\n"
        "subunits = [SubunitRecord(f'u{i}-s{j}', f'u{i}', float(rng.uniform(-1, 1)), 1.0)\n"
        "            for i in range(60) for j in range(3)]\n"
        "design = Design.from_records(units, subunits)\n"
        f"report = balance(design, DesignConfig(bandwidth=0.5), classical_f={classical_f})\n"
        "assert 0.0 <= report.partial_f_pvalue <= 1.0, report\n"
        "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "True False"


def test_estimators_load_no_masked_arrays():
    """The first ``np.unique`` in a process imports ``numpy.ma``, a cold
    import that every ``estimate-lower`` and ``verify-equivalence`` run would
    pay for a unit count."""
    script = (
        "import sys\n"
        "from rdagg import DgpSpec, DesignConfig, equivalence, generate_design, stacked_iv\n"
        "design, _ = generate_design(DgpSpec(n_units=40, n_subunits_per_unit=3, seed=3))\n"
        "config = DesignConfig(bandwidth=0.5)\n"
        "assert stacked_iv(design, config).n_units > 0\n"
        "assert equivalence(design, config).passed\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_absorb_first_parameter_is_columns():
    """The benchmark's tracer reads the ``columns`` argument of
    ``absorb_fixed_effects`` for its exact counter ``regress.absorb.cells``."""
    params = list(inspect.signature(rdagg.regress.absorb_fixed_effects).parameters)
    assert params[0] == "columns"


def test_iv_estimate_tenth_parameter_is_n_stacked_rows():
    """The benchmark's tracer reads argument 9 of ``_iv_estimate`` for its
    exact counter ``estimators.stacked_rows``."""
    params = list(inspect.signature(rdagg.estimators._iv_estimate).parameters)
    assert params[9] == "n_stacked_rows"


@pytest.mark.parametrize("module, source", [
    ("diagnostics", "estimators"), ("diagnostics", "design"), ("cli", "io"),
    ("simlab", "estimators"),
])
def test_no_private_name_crosses(module, source):
    """diagnostics reads the control basis from design's public names and
    the key coding from regress's, not from the estimators; only io knows
    the CSV format, so cli reads tables through its public reader; and a
    Monte Carlo sweep shares its stacks through the estimators' public
    signatures."""
    tree = ast.parse(Path(SRC, "rdagg", f"{module}.py").read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and node.module == source
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_public_names():
    """The package namespace, submodules aside: a record adapter that comes
    back shows up here."""
    names = sorted(n for n in dir(rdagg)
                   if not n.startswith("_") and not isinstance(getattr(rdagg, n), ModuleType))
    assert names == [
        "AttributeFilter", "BalanceReport", "ConfigurationError", "ConvergenceError",
        "CounterfactualPath", "Design", "DesignConfig", "DgpSpec", "DgpTruth",
        "EquivalenceReport", "EstimateResult", "EstimationError", "FirstStage", "FitResult",
        "InputBundle", "IntegrityError", "IvFit", "McSummary", "OracleEstimand", "RdPlotData",
        "RdaError", "ReducedForm", "SchemaError", "SpilloverGraph",
        "SubunitRecord", "UnitRecord", "VarianceDecomposition", "absorb_fixed_effects",
        "balance", "bootstrap_median_ci", "collapsed_iv", "counterfactual_path",
        "design_exposures", "design_stack", "equivalence", "estimand_oracle",
        "estimate_spillover_bilateral", "estimate_spillover_upper", "generate_design",
        "generate_dgp", "iv_fit", "load_bundle", "load_design",
        "parse_filter", "rd_plot_data", "residualize", "run_monte_carlo", "sharp_rd",
        "stacked_iv", "upper_iv", "variance_decomposition", "wls_fit", "write_bundle",
    ]


def test_benchmark_reaches_only_existing_names():
    """Every rdagg name the benchmark's workloads reach exists, and every
    keyword they pass is a parameter of the callee."""
    workloads = Path(SRC).parent / "perfbench" / "workloads.py"
    tree = ast.parse(workloads.read_text(encoding="utf-8"))
    modules = {"rdagg": rdagg, "estimators": rdagg.estimators, "simlab": rdagg.simlab}
    reached = {}  # attribute node -> (module, name), for rdagg.x, simlab.x, self.simlab.x, ...
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name) \
                    and owner.value.id == "self":
                owner = owner.attr
            elif isinstance(owner, ast.Name):
                owner = owner.id
            if owner in modules:
                reached[node] = (modules[owner], node.attr)
    assert {name for _, name in reached.values()} >= {
        "generate_dgp", "load_bundle", "estimate_spillover_upper", "run_monte_carlo"}
    for module, name in reached.values():
        assert hasattr(module, name), f"{module.__name__}.{name}"
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and call.func in reached:
            module, name = reached[call.func]
            params = inspect.signature(getattr(module, name)).parameters
            for keyword in call.keywords:
                assert keyword.arg in params, f"{module.__name__}.{name}({keyword.arg}=...)"
    assert "threads" in inspect.signature(rdagg.simlab.run_monte_carlo).parameters
