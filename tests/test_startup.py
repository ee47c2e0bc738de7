"""The CLI starts without scipy: only numpy and the standard library load."""

import os
import subprocess
import sys
from pathlib import Path

import temporalwitness
from temporalwitness import bounds

SRC = str(Path(temporalwitness.__file__).resolve().parent.parent)


def test_cli_import_loads_no_scipy():
    code = (
        "import sys\n"
        "import temporalwitness.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_minimize_still_resolves():
    # The traced benchmark run wraps ``bounds.minimize`` by name.
    assert callable(getattr(bounds, "minimize"))
