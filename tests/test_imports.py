"""The cold import path stays free of scipy.

scipy is needed only for the balance-test p-values and is imported there;
importing it at module level would add about a second to every CLI run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rdagg

SRC = str(Path(rdagg.__file__).resolve().parents[1])

REPORT = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"

SCRIPTS = {
    "import rdagg": "import rdagg\n" + REPORT,
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
