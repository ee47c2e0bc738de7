"""The temporal correlation polytope: arrow-of-time constraints and its
deterministic extreme points.

Arrow-of-time (AoT) constraints say that the marginal distribution of the
first ``k`` outcomes cannot depend on setting choices made after step
``k``. The vertices of the resulting polytope are deterministic strategies
assigning an outcome to every setting prefix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .simulator import (
    CorrelationTable,
    GuardExceeded,
    Scenario,
    Witness,
    encode_sequence,
)

ENUMERATION_GUARD = 10**7


@dataclass(frozen=True)
class AoTConstraint:
    """One prefix-marginal equality between two future-setting completions.

    The constraint states that the probability of seeing ``outcome_prefix``
    under ``setting_prefix`` is the same whether the remaining settings are
    ``completion_a`` or ``completion_b``; its coefficient vector is +1 on
    the first group of table cells and -1 on the second.
    """

    prefix_len: int
    setting_prefix: tuple[int, ...]
    outcome_prefix: tuple[int, ...]
    completion_a: tuple[int, ...]
    completion_b: tuple[int, ...]
    independent: bool = False

    def cells(self, scenario: Scenario) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """The (+1, -1) table cells of the coefficient vector."""
        tail = scenario.length - self.prefix_len
        x_a = encode_sequence(self.setting_prefix + self.completion_a, scenario.settings)
        x_b = encode_sequence(self.setting_prefix + self.completion_b, scenario.settings)
        plus, minus = [], []
        for suffix in itertools.product(range(scenario.outcomes), repeat=tail):
            a_idx = encode_sequence(self.outcome_prefix + tuple(suffix), scenario.outcomes)
            plus.append((x_a, a_idx))
            minus.append((x_b, a_idx))
        return plus, minus


def aot_constraints(scenario: Scenario) -> list[AoTConstraint]:
    """All prefix-marginal AoT equalities, with a maximal linearly
    independent subset flagged.

    Independence is counted modulo normalization (every setting sequence's
    outcomes summing to one). The flagged subset compares the all-zero
    completion with each completion that differs from it only in the next
    setting, for every outcome prefix but the all-last one: the next
    setting may not move a prefix marginal, and the all-last outcome prefix
    follows from the others by normalization.
    """
    m, d, length = scenario.settings, scenario.outcomes, scenario.length
    constraints: list[AoTConstraint] = []
    for k in range(1, length):
        completions = list(itertools.product(range(m), repeat=length - k))
        for x_prefix in itertools.product(range(m), repeat=k):
            for a_prefix in itertools.product(range(d), repeat=k):
                for comp_a, comp_b in itertools.combinations(completions, 2):
                    constraints.append(AoTConstraint(
                        prefix_len=k,
                        setting_prefix=x_prefix,
                        outcome_prefix=a_prefix,
                        completion_a=comp_a,
                        completion_b=comp_b,
                        independent=not any(comp_a) and not any(comp_b[1:])
                        and a_prefix != (d - 1,) * k,
                    ))
    return constraints


def independent_constraint_count(scenario: Scenario) -> int:
    """The number of independent AoT constraints in closed form.

    Normalized tables have ``m^L (d^L - 1)`` free entries; AoT tables are
    the factorized ones, with ``d - 1`` free conditionals per context
    ``(x_1 a_1 .. x_t)``, of which there are ``m^t d^(t-1)`` at step ``t``.
    """
    m, d, length = scenario.settings, scenario.outcomes, scenario.length
    contexts = sum(m**t * d ** (t - 1) for t in range(1, length + 1))
    return m**length * (d**length - 1) - (d - 1) * contexts


def check_aot(table: CorrelationTable, tol: float = 1e-10) -> list[tuple[AoTConstraint, float]]:
    """Violated AoT constraints with their magnitudes; empty iff the table
    satisfies every constraint to within ``tol``. The prefix marginals of
    every level and completion pair are compared in one vector, in the order
    of :func:`aot_constraints`, which is built only for a violation."""
    m, d, length = table.scenario.settings, table.scenario.outcomes, table.scenario.length
    diffs = [np.zeros(0)]
    for k in range(1, length):
        completions = m ** (length - k)
        # Sums over the outcomes after step k, as (x prefix, a prefix, completion).
        marginal = table.probs.reshape(m**k, completions, d**k, -1).sum(-1).transpose(0, 2, 1)
        first, second = np.triu_indices(completions, 1)
        diffs.append((marginal[..., first] - marginal[..., second]).ravel())
    diff = np.concatenate(diffs)
    violated = np.flatnonzero(np.abs(diff) > tol)
    constraints = aot_constraints(table.scenario) if violated.size else []
    return [(constraints[i], float(diff[i])) for i in violated]


# ---------------------------------------------------------------------------
# Deterministic strategies (extreme points)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeterministicStrategy:
    """An outcome assignment for every setting prefix.

    ``moves[t][i]`` is the outcome at step ``t+1`` when the settings so far
    encode to ``i``. Only settings enter: under determinism, past outcomes
    are themselves functions of past settings, so outcome-dependent
    strategies add nothing.
    """

    scenario: Scenario
    moves: tuple[tuple[int, ...], ...]

    def outcome_sequence(self, settings: Sequence[int]) -> tuple[int, ...]:
        out = []
        for t in range(len(settings)):
            prefix = encode_sequence(settings[: t + 1], self.scenario.settings)
            out.append(self.moves[t][prefix])
        return tuple(out)


def strategy_exponent(scenario: Scenario) -> int:
    """``E`` in the strategy count ``d^E``: the number of setting prefixes,
    each of which a deterministic strategy answers with one outcome."""
    return sum(scenario.settings**t for t in range(1, scenario.length + 1))


def num_deterministic_strategies(scenario: Scenario) -> int:
    return scenario.outcomes ** strategy_exponent(scenario)


def enumerate_deterministic_strategies(scenario: Scenario) -> Iterator[DeterministicStrategy]:
    """Yield every deterministic strategy exactly once, lexicographically
    (earlier steps and earlier setting prefixes vary slowest)."""
    if num_deterministic_strategies(scenario) > ENUMERATION_GUARD:
        raise GuardExceeded(
            f"{scenario.outcomes}^{strategy_exponent(scenario)} strategies exceed the guard"
        )
    per_step = [scenario.settings**t for t in range(1, scenario.length + 1)]
    tables = [
        itertools.product(range(scenario.outcomes), repeat=n_prefixes)
        for n_prefixes in per_step
    ]
    for combo in itertools.product(*tables):
        yield DeterministicStrategy(scenario=scenario, moves=tuple(combo))


def strategy_to_table(strategy: DeterministicStrategy) -> CorrelationTable:
    """The 0/1 correlation table of a strategy; satisfies AoT exactly."""
    sc = strategy.scenario
    probs = np.zeros((sc.num_setting_sequences, sc.num_outcome_sequences))
    x_seqs = itertools.product(range(sc.settings), repeat=sc.length)
    for x_idx, x_seq in enumerate(x_seqs):
        a_seq = strategy.outcome_sequence(x_seq)
        probs[x_idx, encode_sequence(a_seq, sc.outcomes)] = 1.0
    return CorrelationTable(scenario=sc, probs=probs)


def algebraic_max(witness: Witness) -> tuple[float, list[DeterministicStrategy]]:
    """Exact maximum of a witness over all deterministic strategies,
    together with every maximizer (lexicographic order).

    A backward loop over the levels of the coefficient tensor takes the
    best outcome at each history and sums over the next setting. The
    maximizers are the strategies that pick a best outcome (to within
    1e-12) at every history on their path, so they are counted, and then
    built, without enumerating the other strategies.
    """
    sc = witness.scenario
    values = witness.coefficients
    count = np.ones(values.shape)  # maximizing continuations of each history
    best = []
    for _ in range(sc.length):
        top = values.max(axis=-1, keepdims=True)
        best.append(values >= top - 1e-12)
        count = np.where(best[-1], count, 0.0).sum(axis=-1).prod(axis=-1)
        values = top[..., 0].sum(axis=-1)
    best.reverse()
    if count > ENUMERATION_GUARD:
        raise GuardExceeded(f"{float(count):.0f} maximizing strategies exceed the guard")

    # Extend the partial maximizers node by node in enumeration order, each
    # by every best outcome at the history its moves lead the node to.
    partial: list[dict[tuple[int, ...], int]] = [{}]
    for t in range(sc.length):
        for prefix in itertools.product(range(sc.settings), repeat=t + 1):
            extended = []
            for moves in partial:
                history = [v for s in range(t) for v in (prefix[s], moves[prefix[: s + 1]])]
                for a in np.flatnonzero(best[t][(*history, prefix[t])]):
                    extended.append({**moves, prefix: int(a)})
            partial = extended
    maximizers = [
        DeterministicStrategy(scenario=sc, moves=tuple(
            tuple(a for prefix, a in moves.items() if len(prefix) == t)
            for t in range(1, sc.length + 1)
        ))
        for moves in partial
    ]
    return float(values), maximizers
