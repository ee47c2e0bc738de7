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
from typing import TYPE_CHECKING, Iterator

from . import GuardExceeded
from .scenario import Scenario, Witness, encode_sequence

if TYPE_CHECKING:  # check_aot's argument; the rest of the module needs no numpy
    from .simulator import CorrelationTable

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
    import numpy as np

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


def algebraic_max(witness: Witness) -> tuple[float, int, DeterministicStrategy]:
    """Exact maximum of a witness over all deterministic strategies, the
    number of strategies that reach it, and the first of them in
    enumeration order.

    A backward loop over the levels of the history tree takes the best
    outcome at each node, a history and its next setting, and sums over
    the next setting. Only the histories ``(x1, a1, ..., xt, at)`` that
    lead to a term are kept. Any other history is worth 0 whatever
    follows, so every outcome ties at each setting prefix below it. The
    maximizers are the strategies that pick a best outcome (to within
    1e-12) at every history on their path, so they are counted exactly
    without enumerating any strategy. The first maximizer takes, at each
    setting prefix in enumeration order, the lowest best outcome at the
    history its earlier moves lead to.
    """
    sc = witness.scenario
    m, d, length = sc.settings, sc.outcomes, sc.length
    values: dict[tuple[int, ...], float] = {}
    for settings, outcomes, coeff in witness.terms:
        history = tuple(v for pair in zip(settings, outcomes) for v in pair)
        values[history] = values.get(history, 0.0) + coeff
    counts = dict.fromkeys(values, 1)  # maximizing continuations of each history
    best: list[dict[tuple[int, ...], int]] = []  # the lowest best outcome per node
    for t in range(length, 0, -1):
        # A history of t steps that leads to no term leaves every outcome
        # of its later setting prefixes tied.
        free = d ** sum(m**k for k in range(1, length - t + 1))
        step_best, up_values, up_counts, nodes = {}, {}, {}, {}
        for node in sorted({history[:-1] for history in values}):
            row = [values.get((*node, a), 0.0) for a in range(d)]
            top = max(row)
            tied = [a for a in range(d) if row[a] >= top - 1e-12]
            step_best[node] = tied[0]
            parent = node[:-1]
            up_values[parent] = up_values.get(parent, 0.0) + top
            up_counts[parent] = up_counts.get(parent, 1) * sum(
                counts.get((*node, a), free) for a in tied)
            nodes[parent] = nodes.get(parent, 0) + 1
        # Each setting that leads to no term has all d outcomes tied.
        counts = {parent: count * (d * free) ** (m - nodes[parent])
                  for parent, count in up_counts.items()}
        values = up_values
        best.append(step_best)
    best.reverse()

    histories: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}  # setting prefix -> history
    moves = []
    for t in range(length):
        step_moves, step_histories = [], {}
        for prefix in itertools.product(range(m), repeat=t + 1):
            node = (*histories[prefix[:-1]], prefix[-1])
            outcome = best[t].get(node, 0)
            step_moves.append(outcome)
            step_histories[prefix] = (*node, outcome)
        moves.append(tuple(step_moves))
        histories = step_histories
    first = DeterministicStrategy(scenario=sc, moves=tuple(moves))
    return float(values.get((), 0.0)), counts.get((), num_deterministic_strategies(sc)), first
