"""The vocabulary every layer shares: scenarios, sequence encodings (first
step most significant) and labels, and the witness registry. It needs only
the standard library, so ``polytope`` runs without numpy."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from . import GuardExceeded

if TYPE_CHECKING:  # only the history-tensor methods take or give arrays
    import numpy as np

OUTCOME_LABELS = ("+", "-")
TABLE_GUARD = 10**7


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
        arr = tensor.transpose([*steps, *(t + 1 for t in steps)])
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


def format_header(kind: str, scenario: Scenario) -> list[str]:
    """The header lines of a ``kind`` file: ``"correlation-table"`` files
    are only written, and ``cli.parse_counts_file`` reads ``"counts"``
    headers back."""
    return [f"{kind} v1", f"length: {scenario.length}", f"settings: {scenario.settings}",
            f"outcomes: {scenario.outcomes}"]


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
        import numpy as np

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
