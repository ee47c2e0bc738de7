"""The CLI starts on the standard library alone: numpy and each layer load
only when a command that runs them is dispatched, and scipy never loads."""

import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import temporalwitness
from temporalwitness import bounds

SRC = str(Path(temporalwitness.__file__).resolve().parent.parent)
README = Path(__file__).resolve().parent.parent / "README.md"

# The names the package exported by eager imports, by defining submodule.
PUBLIC = {
    "scenario": ["Scenario", "Witness", "WITNESSES", "get_witness"],
    "simulator": ["CorrelationTable", "ReadoutNoise", "apply_readout_noise", "evaluate_witness",
                  "sequence_probabilities"],
    "protocols": ["Protocol", "optimal_protocol"],
    "bounds": ["BoundResult", "QubitBoundParams", "nested_generic_bound",
               "optimize_qubit_bound", "optimize_tee_bound", "tee_closed_form"],
    "polytope": ["algebraic_max", "aot_constraints", "check_aot",
                 "enumerate_deterministic_strategies"],
    "stats": ["CertificationReport", "ConfidenceSpec", "CountsTable", "aot_lr_test", "certify",
              "frequencies", "hoeffding_halfwidth", "qutrit_fraction", "sample_counts"],
}

# Prints the loaded temporalwitness.*, numpy and scipy modules after the CLI
# module is imported and, given arguments, after it ran them as a command.
LOADED = (
    "import contextlib, io, json, sys\n"
    "from temporalwitness.cli import main\n"
    "if sys.argv[1:]:\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        assert main(sys.argv[1:]) == 0\n"
    "prefixes = ('temporalwitness.', 'numpy', 'scipy')\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith(prefixes))))\n"
)


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True)


def loaded_modules(*argv: str) -> set[str]:
    proc = run_python(LOADED, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_cli_import_loads_no_numpy_scipy_or_layer():
    assert loaded_modules() == {"temporalwitness.cli"}


def test_cli_import_loads_no_dataclasses():
    # A site hook may load dataclasses before the CLI does, so only the
    # modules that the import itself adds count.
    proc = run_python("import json, sys\n"
                      "before = set(sys.modules)\n"
                      "import temporalwitness.cli\n"
                      "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "temporalwitness.cli" in added and "dataclasses" not in added


@pytest.mark.parametrize("argv, absent", [
    (["bound", "T", "--method", "closed"], {"stats", "polytope", "simulator", "protocols"}),
    (["simulate", "B1"], {"bounds", "stats", "polytope"}),
])
def test_command_loads_only_its_layers(argv, absent):
    loaded = loaded_modules(*argv)
    assert "numpy" in loaded and "scipy" not in loaded
    assert not {f"temporalwitness.{layer}" for layer in absent} & loaded


@pytest.mark.parametrize("argv", [
    ["polytope", "B1"],
    ["polytope", "T", "--format", "machine"],
    ["polytope", "--scenario", "5", "2", "2"],
])
def test_polytope_runs_on_the_standard_library(argv):
    assert loaded_modules(*argv) == {"temporalwitness.cli", "temporalwitness.polytope",
                                     "temporalwitness.scenario"}


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    (["--version"], 0, "0.1.0\n", ""),
    (["--help"], 0, "usage: temporal-witness", ""),
    (["bound", "T", "--method", "bogus"], 2, "", "usage: temporal-witness bound"),
])
def test_parser_runs_without_numpy(argv, code, stdout, stderr):
    # A None entry makes every `import numpy` raise ImportError.
    proc = run_python("import sys\n"
                      "sys.modules['numpy'] = None\n"
                      "from temporalwitness.cli import main\n"
                      "raise SystemExit(main(sys.argv[1:]))\n", *argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith(stdout) and proc.stderr.startswith(stderr)
    if code == 2:
        assert "error: argument --method: invalid choice: 'bogus'" in proc.stderr
    else:
        assert proc.stdout and not proc.stderr


@pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_public_name_is_its_submodule_object(module, name):
    assert getattr(temporalwitness, name) is getattr(import_module(f"temporalwitness.{module}"),
                                                     name)
    assert name in dir(temporalwitness)


def test_names_defined_by_the_package_are_the_layers_names():
    assert bounds.DEFAULT_SEED is temporalwitness.DEFAULT_SEED
    assert import_module("temporalwitness.scenario").GuardExceeded \
        is temporalwitness.GuardExceeded
    assert {"DEFAULT_SEED", "GuardExceeded", "__version__"} <= set(dir(temporalwitness))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'temporalwitness' has no attribute 'optimise'"):
        temporalwitness.optimise  # noqa: B018
    assert not hasattr(temporalwitness, "apply_map")


def test_readme_example_prints_the_noisy_value():
    example = re.search(r"```python\n(.*?)```", README.read_text(), re.S)[1]
    proc = run_python(example)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "7.226112\n"


def test_minimize_still_resolves():
    # The traced benchmark run wraps ``bounds.minimize`` by name.
    assert callable(getattr(bounds, "minimize"))
