"""Dimension certification from temporal quantum correlations.

The package simulates sequences of measure-and-prepare steps on small
quantum systems, evaluates temporal witnesses against their
dimension-dependent bounds, and certifies a minimal Hilbert-space dimension from count data.

Importing the package loads no numpy: the names below are defined here,
and every other public name is read from its submodule on first access,
so ``from temporalwitness import optimal_protocol`` imports only the
layers that name needs.
"""

__version__ = "0.1.0"

# Seed of the generic optimizer's randomized restarts and of every command
# that draws random numbers; fixed so that reported traces are reproducible.
DEFAULT_SEED = 20240601


class GuardExceeded(RuntimeError):
    """A requested enumeration or table would exceed the size guard."""


# Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "scenario": "Scenario Witness WITNESSES get_witness",
    "simulator": "CorrelationTable ReadoutNoise apply_readout_noise evaluate_witness "
                 "sequence_probabilities",
    "protocols": "Protocol optimal_protocol",
    "bounds": "BoundResult QubitBoundParams nested_generic_bound optimize_qubit_bound "
              "optimize_tee_bound tee_closed_form",
    "polytope": "algebraic_max aot_constraints check_aot enumerate_deterministic_strategies",
    "stats": "CertificationReport ConfidenceSpec CountsTable aot_lr_test certify frequencies "
             "hoeffding_halfwidth qutrit_fraction sample_counts",
}.items() for name in names.split()}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
