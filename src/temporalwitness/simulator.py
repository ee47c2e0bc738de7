"""Exact sequential-measurement correlation tables and witness functionals.

Tables are dense arrays indexed by integer encodings of setting and outcome
sequences (first time step = most significant digit), which is simplest and
exact for the short sequences this library targets.

Every table of a scenario with ``m`` settings, ``d`` outcomes and length
``L`` also has a *history tensor* view of shape ``(m, d) * L``, with axes
interleaved as ``x_1, a_1, ..., x_L, a_L``: one entry per leaf of the tree
of measurement histories. Both encodings put the first step in the most
significant digit, so the view is a reshape and a transpose
(:meth:`Scenario.to_history`, inverted by :meth:`Scenario.from_history`),
and :attr:`Witness.coefficients` lays witness terms out the same way. The
last two axes are the last step, so summing or contracting them moves one
level up the tree: the simulator, readout noise, the AoT statistics, the
nested qubit bound and the algebraic maximum are all loops over levels of
this tensor, and only this module knows the encoding.

The text labels of the cells come from one enumeration per scenario,
:func:`sequence_labels`, in index order: the table and counts-file writers
zip them with the rows, and the readers map labels back to indices
(:func:`sequence_indexers`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .protocols import BRIGHT, OUTCOME_LABELS, Protocol
from .qcore import apply_map

TABLE_GUARD = 10**7

# Fluorescence kind of the branch (setting, true outcome index).
DetectionResolver = Callable[[int, int], str]


class GuardExceeded(RuntimeError):
    """A requested enumeration or table would exceed the size guard."""


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
        if self.num_setting_sequences * self.num_outcome_sequences > TABLE_GUARD:
            raise GuardExceeded(
                f"table of {self.num_setting_sequences} x "
                f"{self.num_outcome_sequences} entries exceeds the guard"
            )

    @property
    def num_setting_sequences(self) -> int:
        return self.settings**self.length

    @property
    def num_outcome_sequences(self) -> int:
        return self.outcomes**self.length

    def to_history(self, table: np.ndarray) -> np.ndarray:
        """History-tensor view of a ``(setting sequence, outcome sequence)``
        array, or of a stack of them on leading batch axes, which are kept
        in front."""
        length = self.length
        batch = np.shape(table)[:-2]
        arr = np.reshape(table, batch + (self.settings,) * length + (self.outcomes,) * length)
        first = len(batch)
        return arr.transpose([*range(first), *(first + t + length * j
                                               for t in range(length) for j in (0, 1))])

    def from_history(self, tensor: np.ndarray) -> np.ndarray:
        """The ``(setting sequence, outcome sequence)`` array of a history
        tensor; inverse of :meth:`to_history`."""
        steps = range(0, 2 * self.length, 2)
        arr = np.transpose(tensor, [*steps, *(t + 1 for t in steps)])
        return arr.reshape(self.num_setting_sequences, self.num_outcome_sequences)


def format_setting_sequence(seq: Sequence[int]) -> str:
    return "".join(str(x) for x in seq)


def parse_setting_sequence(text: str, scenario: Scenario) -> tuple[int, ...]:
    seq = tuple(int(ch) for ch in text)
    if len(seq) != scenario.length or any(not 0 <= x < scenario.settings for x in seq):
        raise ValueError(f"bad setting sequence {text!r} for {scenario}")
    return seq


def format_outcome_sequence(seq: Sequence[int], scenario: Scenario) -> str:
    if scenario.outcomes == 2:
        return "".join(OUTCOME_LABELS[a] for a in seq)
    return "".join(str(a) for a in seq)


def parse_outcome_sequence(text: str, scenario: Scenario) -> tuple[int, ...]:
    if scenario.outcomes == 2:
        try:
            seq = tuple(OUTCOME_LABELS.index(ch) for ch in text)
        except ValueError:
            raise ValueError(f"bad outcome sequence {text!r}") from None
    else:
        seq = tuple(int(ch) for ch in text)
    if len(seq) != scenario.length or any(not 0 <= a < scenario.outcomes for a in seq):
        raise ValueError(f"bad outcome sequence {text!r} for {scenario}")
    return seq


def sequence_labels(scenario: Scenario) -> tuple[list[str], list[str]]:
    """The label of every setting sequence and of every outcome sequence,
    in index order (first step most significant).

    A label writes one digit per step, so a scenario of more than ten
    settings, or of more than ten outcomes, has no labels: ``(1, 0, 10)``
    and ``(10, 1, 0)`` would both read ``1010``.
    """
    if scenario.settings > 10 or scenario.outcomes > 10:
        raise ValueError(
            f"labels write one digit per step, so tables and counts files allow at most "
            f"10 settings and 10 outcomes, not {scenario.settings} and {scenario.outcomes}"
        )
    settings = itertools.product(range(scenario.settings), repeat=scenario.length)
    outcomes = itertools.product(range(scenario.outcomes), repeat=scenario.length)
    return ([format_setting_sequence(seq) for seq in settings],
            [format_outcome_sequence(seq, scenario) for seq in outcomes])


def sequence_indexers(scenario: Scenario) -> tuple[Callable[[str], int], Callable[[str], int]]:
    """Maps from a setting label and from an outcome label to its index. The
    labels of :func:`sequence_labels` are looked up, so the scenario obeys
    its limit of ten settings and ten outcomes. Other text goes through
    ``parse_*_sequence``, which raises on bad text."""
    def indexer(labels: list[str], parse: Callable, base: int) -> Callable[[str], int]:
        known = {label: i for i, label in enumerate(labels)}
        return lambda text: known[text] if text in known else encode_sequence(
            parse(text, scenario), base)

    x_labels, a_labels = sequence_labels(scenario)
    return (indexer(x_labels, parse_setting_sequence, scenario.settings),
            indexer(a_labels, parse_outcome_sequence, scenario.outcomes))


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
    """Exact table of ``p(a_1..a_L | x_1..x_L)`` for a protocol.

    Each branch ``(x, a)`` acts on vectorized density matrices as one
    superoperator, built by mapping the matrix units. The frontier of
    unnormalized post-measurement states is a history tensor with a
    trailing state axis; each level is one contraction of it with all
    branches, after which branches of trace at most 1e-15 are cut to exact
    zeros. Leaf traces are the entries; rows are normalized because the
    instruments are trace-preserving.
    """
    m = protocol.num_settings
    d = len(protocol.outcomes)
    scenario = Scenario(length=length, settings=m, outcomes=d)
    n = protocol.dim**2
    units = np.eye(n, dtype=complex).reshape(n, protocol.dim, protocol.dim)
    images = np.array([
        [apply_map(protocol.instruments[x].maps[label], units) for label in protocol.outcomes]
        for x in range(m)
    ])
    # step[l, (x, a, k)]: entry k of branch (x, a) applied to matrix unit l.
    step = images.reshape(m, d, n, n).transpose(2, 0, 1, 3).reshape(n, m * d * n)
    diagonal = np.arange(protocol.dim) * (protocol.dim + 1)
    frontier = np.asarray(protocol.initial_state.mat).reshape(n)
    for _ in range(length):
        frontier = (frontier @ step).reshape(frontier.shape[:-1] + (m, d, n))
        frontier[frontier[..., diagonal].sum(axis=-1).real <= 1e-15] = 0.0
    probs = frontier[..., diagonal].sum(axis=-1).real
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

    def record_prob(self, kind: str, flipped: bool) -> float:
        correct = self.p_bright_correct if kind == BRIGHT else self.p_dark_correct
        return 1.0 - correct if flipped else correct


def protocol_detection_resolver(protocol: Protocol) -> DetectionResolver:
    """Resolver mapping each measurement branch to its fluorescence kind,
    derived from the protocol's pulse provenance."""
    kinds = protocol.detection_kinds
    if kinds is None:
        raise ValueError("protocol carries no detection-kind information")
    labels = protocol.outcomes

    def resolver(setting: int, outcome: int) -> str:
        return kinds[(setting, labels[outcome])]

    return resolver


def apply_readout_noise(
    table: CorrelationTable,
    resolver: DetectionResolver,
    noise: ReadoutNoise,
) -> CorrelationTable:
    """Mix a table through per-step binary readout confusion.

    The quantum branch follows the true outcome; only the recorded symbol
    flips, with an error rate set by the branch's detection kind. The
    result stays normalized because each confusion column sums to one.
    """
    scenario = table.scenario
    if scenario.outcomes != 2:
        raise ValueError("readout noise is defined for binary outcomes only")
    # confusion[x, a, r]: probability of recording r on branch (x, a).
    confusion = np.array([
        [[noise.record_prob(resolver(x, a), r != a) for r in range(2)] for a in range(2)]
        for x in range(scenario.settings)
    ])
    tensor = scenario.to_history(table.probs)
    axes = list(range(tensor.ndim))
    for x_axis in range(0, tensor.ndim, 2):
        # Contract the true outcome of this step into the recorded one.
        out = axes.copy()
        out[x_axis + 1] = tensor.ndim
        tensor = np.einsum(
            tensor, axes, confusion, [x_axis, x_axis + 1, tensor.ndim], out
        )
    return CorrelationTable(scenario=scenario, probs=scenario.from_history(tensor))


def evaluate_witness(witness: Witness, table: CorrelationTable) -> float:
    """The witness value: the coefficient-weighted sum of table entries."""
    if witness.scenario != table.scenario:
        raise ValueError(
            f"witness scenario {witness.scenario} does not match table {table.scenario}"
        )
    total = 0.0
    for settings, outcomes, coeff in witness.terms:
        total += coeff * table.prob(settings, outcomes)
    return total


# ---------------------------------------------------------------------------
# Table serialization
# ---------------------------------------------------------------------------

def format_header(kind: str, scenario: Scenario) -> list[str]:
    """The header lines of a table or counts file of ``kind``."""
    return [f"{kind} v1", f"length: {scenario.length}", f"settings: {scenario.settings}",
            f"outcomes: {scenario.outcomes}"]


def format_correlation_table(table: CorrelationTable) -> str:
    lines = format_header("correlation-table", table.scenario)
    x_labels, a_labels = sequence_labels(table.scenario)
    for x_txt, row in zip(x_labels, table.probs.tolist()):
        lines += [f"{x_txt} {a_txt} {p:.12g}" for a_txt, p in zip(a_labels, row)]
    return "\n".join(lines) + "\n"


def parse_correlation_table(text: str) -> CorrelationTable:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "correlation-table v1":
        raise ValueError("table file must start with 'correlation-table v1'")
    header: dict[str, int] = {}
    body_start = 1
    for ln in lines[1:]:
        key, sep, rest = ln.partition(":")
        if not sep or key.strip() not in ("length", "settings", "outcomes"):
            break
        header[key.strip()] = int(rest.strip())
        body_start += 1
    if set(header) != {"length", "settings", "outcomes"}:
        raise ValueError("table file must declare length, settings and outcomes")
    scenario = Scenario(header["length"], header["settings"], header["outcomes"])
    probs = np.zeros((scenario.num_setting_sequences, scenario.num_outcome_sequences))
    seen = np.zeros(probs.shape, dtype=bool)
    setting_index, outcome_index = sequence_indexers(scenario)
    for ln in lines[body_start:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"malformed table row: {ln!r}")
        i, j = setting_index(parts[0]), outcome_index(parts[1])
        if seen[i, j]:
            raise ValueError(f"duplicate table row for {parts[0]} {parts[1]}")
        seen[i, j] = True
        probs[i, j] = float(parts[2])
    if not seen.all():
        raise ValueError("table file is missing rows")
    return CorrelationTable(scenario=scenario, probs=probs)
