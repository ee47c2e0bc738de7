"""Exact sequential-measurement correlation tables, readout noise and the
table writer.

Tables are dense arrays indexed by integer encodings of setting and outcome
sequences (first time step = most significant digit), which is simplest and
exact for the short sequences this library targets.

Every table of a scenario with ``m`` settings, ``d`` outcomes and length
``L`` also has a *history tensor* view of shape ``(m, d) * L``, with axes
interleaved as ``x_1, a_1, ..., x_L, a_L``: one entry per leaf of the tree
of measurement histories. Both encodings put the first step in the most
significant digit, so the view is a reshape and a transpose, which
:meth:`Scenario.from_history` undoes, and :attr:`Witness.coefficients`
lays witness terms out the same way. The last two axes are the last step,
so summing or contracting them moves one level up the tree: the simulator
and the nested qubit bound are loops over levels of this tensor. The
algebraic maximum does not walk the dense tensor: ``polytope.algebraic_max``
visits only the histories that lead to a witness term. Three walkers
elsewhere read the encoding itself rather than the view: readout noise
updates one step's outcome axis at a time on the free reshape
``(m,) * L + (d,) * L`` of the table,
``stats._fold``, behind the AoT statistics and ``stats.null_model_table``,
sums a step's digit as strided slices of the index, and
``polytope.check_aot`` reshapes the rows and columns into prefixes.

The simulator grows the tensor one level at a time. A measure-and-prepare
step keeps nothing of the state it measured but its branch, so the
probability of the next branch depends only on the last one: the first
level is ``f[x, a] = tr(E[x, a] rho0)``, and each later level multiplies
the tensor, broadcast over its earlier steps, by the transition tensor
``T[x, a, x', a'] = tr(E[x', a'] sigma[x, a])``.

The text labels of the cells come from one enumeration per scenario,
``scenario.sequence_labels``, in index order: the table and counts-file
writers zip them with the rows, and the counts reader maps labels back to
indices (``scenario.sequence_indexers``). The entries' text comes from
:func:`entry_texts`, which formats each distinct entry once, keyed on its
bits: a table of Markov products repeats its entries (163 distinct of 4,096
for the T protocol at length 6 with readout noise). Table files are only
written, with entries spelled as ``"%.12g"`` writes them; no command reads
one back. The counts reader, ``cli.parse_counts_file``, accepts only the
labels that ``sequence_labels`` writes and the header that
``scenario.format_header`` writes, and follows the grammar of
``protocols.document_lines`` and ``protocols.natural``: no key repeats and
header numbers are ASCII decimal digits. Errors quote the line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .protocols import Protocol
from .scenario import Scenario, Witness, encode_sequence, format_header, sequence_labels


def __getattr__(name: str):
    # Lazy shim: the simulator applies no Kraus maps, but the traced
    # benchmark run (perfbench/spans.py) wraps ``simulator.apply_map`` by
    # name. The stub it gets is never called, so its span reads 0. The shim
    # goes once the benchmark drops that span.
    if name == "apply_map":
        def apply_map(*args, **kwargs):
            raise NotImplementedError("the simulator applies no Kraus maps")
        return apply_map
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Probabilities ``p(outcome sequence | setting sequence)``.

    ``probs[i, j]`` is the probability of the outcome sequence encoded by
    ``j`` given the setting sequence encoded by ``i``. Entries are finite
    and rows are normalized; entries within tolerance of [0, 1] are clamped
    onto it.
    """

    scenario: Scenario
    probs: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.scenario.num_setting_sequences, self.scenario.num_outcome_sequences)
        arr = np.asarray(self.probs, dtype=float)
        if arr.shape != expected:
            raise ValueError(f"probs must have shape {expected}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("probabilities must be finite")
        if arr.min() < -1e-9 or arr.max() > 1.0 + 1e-9:
            raise ValueError("probabilities outside [0, 1] beyond tolerance")
        row_sums = arr.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > 1e-9:
            raise ValueError("each setting sequence's outcome probabilities must sum to 1")
        arr = np.clip(arr, 0.0, 1.0)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def prob(self, settings: Sequence[int], outcomes: Sequence[int]) -> float:
        i = encode_sequence(settings, self.scenario.settings)
        j = encode_sequence(outcomes, self.scenario.outcomes)
        return float(self.probs[i, j])



# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def sequence_probabilities(protocol: Protocol, length: int) -> CorrelationTable:
    """Exact table of ``p(a_1..a_L | x_1..x_L)`` for a protocol: the Markov
    product ``f[x1, a1] * prod_k T[x(k-1), a(k-1), xk, ak]`` of the module
    docstring, one broadcast product per level of the history tensor."""
    effects = protocol.effects
    scenario = Scenario(length=length, settings=effects.shape[0], outcomes=effects.shape[1])
    probs = np.einsum("xaij,ji->xa", effects, protocol.initial_state).real
    transition = np.einsum("ybij,xaji->xayb", effects, protocol.preparations).real
    for _ in range(1, length):
        probs = probs[..., None, None] * transition
    return CorrelationTable(scenario=scenario, probs=scenario.from_history(probs))


@dataclass(frozen=True)
class ReadoutNoise:
    """Classical readout fidelities of the binary fluorescence detection."""

    p_bright_correct: float = 0.96
    p_dark_correct: float = 0.98

    def __post_init__(self) -> None:
        for name in ("p_bright_correct", "p_dark_correct"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name}={val} outside [0, 1]")


def apply_readout_noise(table: CorrelationTable, bright: np.ndarray | None,
                        noise: ReadoutNoise) -> CorrelationTable:
    """Mix a table through per-step binary readout confusion.

    The quantum branch follows the true outcome; only the recorded symbol
    flips, with an error rate set by the branch's detection kind:
    ``bright[x, a]`` marks the branches that fluoresce, as
    :attr:`Protocol.bright` does. The result stays normalized because each
    confusion column sums to one.

    Each step is one two-term update on the reshape ``(m,) * L + (2,) * L``
    of the table, whose axes are the setting digits and then the outcome
    digits, so no transpose or copy of the table is needed to reach them.
    """
    scenario = table.scenario
    if scenario.outcomes != 2:
        raise ValueError("readout noise is defined for binary outcomes only")
    mask = np.asarray(bright)
    if mask.dtype != bool or mask.shape != (scenario.settings, 2):
        raise ValueError(f"readout noise needs a boolean detection-kind mask of shape "
                         f"{(scenario.settings, 2)}, got {mask.dtype} of shape {mask.shape}")
    correct = np.where(mask, noise.p_bright_correct, noise.p_dark_correct)[..., None]
    # confusion[x, a, r]: probability of recording r on branch (x, a).
    confusion = np.where(np.eye(2, dtype=bool), correct, 1.0 - correct)
    length = scenario.length
    tensor = table.probs.reshape((scenario.settings,) * length + (2,) * length)
    for step in range(length):
        # p[.., r, ..] = p[.., 0, ..] * confusion[x, 0, r]
        #              + p[.., 1, ..] * confusion[x, 1, r] on this step's
        # outcome axis, with x and r broadcast on its setting and outcome axes.
        axis = length + step
        shape = [1] * (2 * length)
        shape[step], shape[axis] = scenario.settings, 2
        lead = (slice(None),) * axis
        tensor = (tensor[lead + (slice(0, 1),)] * confusion[:, 0].reshape(shape)
                  + tensor[lead + (slice(1, 2),)] * confusion[:, 1].reshape(shape))
    return CorrelationTable(scenario=scenario, probs=tensor.reshape(table.probs.shape))


def evaluate_witness(witness: Witness, table: CorrelationTable) -> float:
    """The witness value: the coefficient-weighted sum of table entries."""
    if witness.scenario != table.scenario:
        raise ValueError(
            f"witness scenario {witness.scenario} does not match table {table.scenario}"
        )
    return witness.score(table.probs)


# ---------------------------------------------------------------------------
# Table serialization
# ---------------------------------------------------------------------------

def entry_texts(table: CorrelationTable, fmt: Callable[[float], str]) -> list[list[str]]:
    """``fmt`` of every entry of the table, as rows of text in index order.

    A measure-and-prepare table is a product of a few per-step factors, so
    its entries repeat: ``fmt`` runs once per distinct entry. Entries are
    told apart by their bits, not their values, so ``-0.0`` keeps its own
    text. Both outputs of ``np.unique`` come from one flat array, so the
    inverse is flat whatever shape numpy gives it for other inputs.
    """
    bits, inverse = np.unique(table.probs.ravel().view(np.int64), return_inverse=True)
    texts = np.array(list(map(fmt, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].reshape(table.probs.shape).tolist()


def format_correlation_table(table: CorrelationTable) -> str:
    """The table file: the header, then one ``settings outcomes p`` line per
    cell with ``p`` to 12 significant digits (``"%.12g" % p`` is
    ``f"{p:.12g}"`` and is cheaper to call)."""
    lines = format_header("correlation-table", table.scenario)
    x_labels, a_labels = sequence_labels(table.scenario)
    for x_txt, row in zip(x_labels, entry_texts(table, "%.12g".__mod__)):
        lines += map(" ".join, zip(itertools.repeat(x_txt), a_labels, row))
    return "\n".join(lines) + "\n"
