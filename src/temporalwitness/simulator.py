"""Exact sequential-measurement correlation tables and witness functionals.

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
so summing or contracting them moves one level up the tree: the
simulator, the nested qubit bound and the algebraic maximum are all loops
over levels of this tensor. Three walkers elsewhere read the encoding
itself rather than the view: readout noise updates one step's outcome axis
at a time on the free reshape ``(m,) * L + (d,) * L`` of the table,
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
:func:`sequence_labels`, in index order: the table and counts-file writers
zip them with the rows, and the counts reader maps labels back to indices
(:func:`sequence_indexers`). The entries' text comes from
:func:`entry_texts`, which formats each distinct entry once, keyed on its
bits: a table of Markov products repeats its entries (163 distinct of 4,096
for the T protocol at length 6 with readout noise). Table files are only
written, with entries spelled as ``"%.12g"`` writes them; no command reads
one back. The counts reader, ``cli.parse_counts_file``, accepts only the
labels that :func:`sequence_labels` writes and the header that
:func:`format_header` writes, and follows the grammar of
``protocols.document_lines`` and ``protocols.natural``: no key repeats and
header numbers are ASCII decimal digits. Errors quote the line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import GuardExceeded
from .protocols import OUTCOME_LABELS, Protocol

TABLE_GUARD = 10**7


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


def encode_sequence(seq: Sequence[int], base: int) -> int:
    idx = 0
    for digit in seq:
        if not 0 <= digit < base:
            raise ValueError(f"digit {digit} out of range for base {base}")
        idx = idx * base + digit
    return idx


def decode_index(idx: int, base: int, length: int) -> tuple[int, ...]:
    digits = []
    for _ in range(length):
        idx, rem = divmod(idx, base)
        digits.append(rem)
    if idx:
        raise ValueError("index out of range for the given base and length")
    return tuple(reversed(digits))


@dataclass(frozen=True)
class Scenario:
    """Sequence length, number of settings and number of outcomes per step."""

    length: int
    settings: int
    outcomes: int

    def __post_init__(self) -> None:
        if self.length < 1 or self.settings < 1 or self.outcomes < 2:
            raise ValueError("need length >= 1, settings >= 1, outcomes >= 2")
        # settings * outcomes >= 2, so past 64 steps the table already
        # exceeds the guard; capping the power keeps a length read from a
        # file from building an integer of that many bits.
        if (self.settings * self.outcomes) ** min(self.length, 64) > TABLE_GUARD:
            raise GuardExceeded(
                f"table of {self.settings}^{self.length} x "
                f"{self.outcomes}^{self.length} entries exceeds the guard"
            )

    @property
    def num_setting_sequences(self) -> int:
        return self.settings**self.length

    @property
    def num_outcome_sequences(self) -> int:
        return self.outcomes**self.length

    def from_history(self, tensor: np.ndarray) -> np.ndarray:
        """The ``(setting sequence, outcome sequence)`` array of a history
        tensor, whose axes are ``x_1, a_1, ..., x_L, a_L``."""
        steps = range(0, 2 * self.length, 2)
        arr = np.transpose(tensor, [*steps, *(t + 1 for t in steps)])
        return arr.reshape(self.num_setting_sequences, self.num_outcome_sequences)


def _parse_sequence(text: str, scenario: Scenario, kind: str, symbols: str) -> tuple[int, ...]:
    """The digits of a label that writes one of ``symbols`` per step."""
    seq = tuple(map(symbols.find, text))
    if len(seq) != scenario.length or -1 in seq:
        raise ValueError(f"bad {kind} sequence {text!r} for {scenario}")
    return seq


def _symbols(scenario: Scenario) -> tuple[str, str]:
    """The characters a label writes per step: a digit per setting, and
    ``+``/``-`` for two outcomes or else a digit per outcome."""
    outcomes = "".join(OUTCOME_LABELS) if scenario.outcomes == 2 else "0123456789"
    return "0123456789"[:scenario.settings], outcomes[:scenario.outcomes]


def parse_setting_sequence(text: str, scenario: Scenario) -> tuple[int, ...]:
    return _parse_sequence(text, scenario, "setting", _symbols(scenario)[0])


def parse_outcome_sequence(text: str, scenario: Scenario) -> tuple[int, ...]:
    return _parse_sequence(text, scenario, "outcome", _symbols(scenario)[1])


def sequence_labels(scenario: Scenario) -> tuple[list[str], list[str]]:
    """The label of every setting sequence and of every outcome sequence,
    in index order (first step most significant).

    A label writes one character per step, so a scenario of more than ten
    settings, or of more than ten outcomes, has no labels: ``(1, 0, 10)``
    and ``(10, 1, 0)`` would both read ``1010``.
    """
    if scenario.settings > 10 or scenario.outcomes > 10:
        raise ValueError(
            f"labels write one digit per step, so tables and counts files allow at most "
            f"10 settings and 10 outcomes, not {scenario.settings} and {scenario.outcomes}"
        )
    x_symbols, a_symbols = _symbols(scenario)
    return ([*map("".join, itertools.product(x_symbols, repeat=scenario.length))],
            [*map("".join, itertools.product(a_symbols, repeat=scenario.length))])


def sequence_indexers(scenario: Scenario) -> tuple[Callable[[str], int], Callable[[str], int]]:
    """Maps from a setting label and from an outcome label to its index.
    Only the labels of :func:`sequence_labels` are known, so the scenario
    obeys its limit of ten settings and ten outcomes; other text raises
    the ``ValueError`` of ``parse_*_sequence``, which accepts just those."""
    def indexer(labels: list[str], parse: Callable) -> Callable[[str], int]:
        known = {label: i for i, label in enumerate(labels)}

        def index(text: str) -> int:
            if text not in known:
                parse(text, scenario)
            return known[text]
        return index

    x_labels, a_labels = sequence_labels(scenario)
    return indexer(x_labels, parse_setting_sequence), indexer(a_labels, parse_outcome_sequence)


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


@dataclass(frozen=True, eq=False)
class Witness:
    """A linear functional on correlation tables: a sum of selected entries.

    ``qubit_bound`` is the maximum over all sequences of two-outcome qubit
    instruments (with arbitrary transformations between steps), as the
    paper reports it; ``algebraic_max`` is the maximum over the whole
    temporal polytope. ``threshold`` is what ``stats.certify`` compares
    with: an upper bound on the qubit supremum, never below
    ``qubit_bound`` and equal to it unless given.
    """

    id: str
    scenario: Scenario
    terms: tuple[tuple[tuple[int, ...], tuple[int, ...], float], ...]
    qubit_bound: float | None = None
    algebraic_max: float | None = None
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.threshold is None:
            object.__setattr__(self, "threshold", self.qubit_bound)
        elif self.qubit_bound is None or self.threshold < self.qubit_bound:
            raise ValueError("threshold needs a qubit bound and must not lie below it")
        for settings, outcomes, _coeff in self.terms:
            if len(settings) != self.scenario.length or len(outcomes) != self.scenario.length:
                raise ValueError("witness term length does not match the scenario")
            if any(not 0 <= x < self.scenario.settings for x in settings):
                raise ValueError("witness term uses an unknown setting")
            if any(not 0 <= a < self.scenario.outcomes for a in outcomes):
                raise ValueError("witness term uses an unknown outcome")

    @property
    def coefficients(self) -> np.ndarray:
        """The terms as a history tensor, coefficients summed per cell."""
        sc = self.scenario
        tensor = np.zeros((sc.settings, sc.outcomes) * sc.length)
        for settings, outcomes, coeff in self.terms:
            tensor[tuple(v for pair in zip(settings, outcomes) for v in pair)] += coeff
        return tensor

    def score(self, array: np.ndarray) -> float:
        """``sum coeff * array[x, a]`` over the terms, in term order, where
        ``x`` and ``a`` index the term's setting and outcome sequences as
        the rows and columns of a table do."""
        sc = self.scenario
        total = 0.0
        for settings, outcomes, coeff in self.terms:
            x, a = encode_sequence(settings, sc.settings), encode_sequence(outcomes, sc.outcomes)
            total += coeff * float(array[x, a])
        return total

    @property
    def setting_sequences(self) -> tuple[tuple[int, ...], ...]:
        """The distinct setting sequences appearing in the terms, in order."""
        seen: dict[tuple[int, ...], None] = {}
        for settings, _, _ in self.terms:
            seen.setdefault(settings)
        return tuple(seen)


def _witness_from_strings(wid: str, term_strings: Sequence[str], qubit_bound: float,
                          algebraic_max: float, threshold: float | None = None) -> Witness:
    length = len(term_strings[0].split("|")[0])
    scenario = Scenario(length=length, settings=2, outcomes=2)
    terms = []
    for spec in term_strings:
        outcome_part, _, setting_part = spec.partition("|")
        terms.append(
            (
                parse_setting_sequence(setting_part, scenario),
                parse_outcome_sequence(outcome_part, scenario),
                1.0,
            )
        )
    return Witness(
        id=wid,
        scenario=scenario,
        terms=tuple(terms),
        qubit_bound=qubit_bound,
        algebraic_max=algebraic_max,
        threshold=threshold,
    )


# Registry of the built-in witnesses. Qubit bounds: 3 for the first two,
# about 3.186 for the other two length-2 quantities, about 5.226 for the
# three-step quantity; the algebraic maxima are 4 and 8. The paper's 3.186
# lies below the 3.186228 that optimize_qubit_bound reaches, so those two
# certify against 3.1863 instead.
WITNESSES: dict[str, Witness] = {
    "B1": _witness_from_strings("B1", ("++|00", "++|11", "+-|01", "+-|10"), 3.0, 4.0),
    "B2": _witness_from_strings("B2", ("+-|00", "+-|11", "++|01", "++|10"), 3.0, 4.0),
    "B3": _witness_from_strings("B3", ("+-|00", "++|11", "+-|01", "+-|10"), 3.186, 4.0, 3.1863),
    "B4": _witness_from_strings("B4", ("+-|00", "+-|11", "+-|01", "++|10"), 3.186, 4.0, 3.1863),
    "T": _witness_from_strings(
        "T",
        ("+++|000", "++-|001", "+--|010", "+-+|011",
         "+-+|100", "+--|101", "++-|110", "+++|111"),
        5.226,
        8.0,
    ),
}


def get_witness(witness_id: str) -> Witness:
    try:
        return WITNESSES[witness_id]
    except KeyError:
        raise KeyError(f"unknown witness {witness_id!r}") from None


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

def format_header(kind: str, scenario: Scenario) -> list[str]:
    """The header lines of a ``kind`` file: ``"correlation-table"`` files
    are only written, and ``cli.parse_counts_file`` reads ``"counts"``
    headers back."""
    return [f"{kind} v1", f"length: {scenario.length}", f"settings: {scenario.settings}",
            f"outcomes: {scenario.outcomes}"]


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
