"""Dimension certification from temporal quantum correlations.

The package simulates sequences of measure-and-prepare steps on small
quantum systems, evaluates temporal witnesses against their
dimension-dependent bounds, and certifies a minimal Hilbert-space dimension from count data.
"""

__version__ = "0.1.0"

from .qcore import bloch_to_state  # noqa: F401
from .simulator import (  # noqa: F401
    CorrelationTable,
    ReadoutNoise,
    Scenario,
    Witness,
    WITNESSES,
    apply_readout_noise,
    evaluate_witness,
    get_witness,
    sequence_probabilities,
)
from .protocols import (  # noqa: F401
    Protocol,
    extremal_qubit_measurements,
    optimal_protocol,
)
from .bounds import (  # noqa: F401
    BoundResult,
    QubitBoundParams,
    nested_generic_bound,
    optimize_qubit_bound,
    optimize_tee_bound,
    tee_closed_form,
)
from .polytope import (  # noqa: F401
    algebraic_max,
    aot_constraints,
    check_aot,
    enumerate_deterministic_strategies,
    strategy_to_table,
)
from .stats import (  # noqa: F401
    CertificationReport,
    ConfidenceSpec,
    CountsTable,
    aot_lr_test,
    certify,
    frequencies,
    hoeffding_halfwidth,
    qutrit_fraction,
    sample_counts,
)
