"""Reference values and independent checks of the CLI's reports.

Nothing here imports the package under test. The numbers come from the
source paper (algebraic maxima, qubit bounds, readout-noise caps) or from
counting arguments (strategy and constraint counts); table properties are
recomputed with numpy from the command's own inputs and outputs.

Every ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.stats import chi2

OUTCOME_SYMBOLS = "+-"

# Witness definitions from the paper: terms "outcomes|settings".
WITNESS_TERMS = {
    "B1": ("++|00", "++|11", "+-|01", "+-|10"),
    "B2": ("+-|00", "+-|11", "++|01", "++|10"),
    "B3": ("+-|00", "++|11", "+-|01", "+-|10"),
    "B4": ("+-|00", "+-|11", "+-|01", "++|10"),
    "T": ("+++|000", "++-|001", "+--|010", "+-+|011",
          "+-+|100", "+--|101", "++-|110", "+++|111"),
}
QUBIT_BOUND = {"B1": 3.0, "B2": 3.0, "B3": 3.186, "B4": 3.186, "T": 5.226}
ALGEBRAIC_MAX = {"B1": 4.0, "B2": 4.0, "B3": 4.0, "B4": 4.0, "T": 8.0}
BOUND_TOLERANCE = 0.002
# Witness values of the optimal qutrit protocols at readout fidelities
# 0.96 (bright) / 0.98 (dark), from the paper's noise analysis.
NOISY_VALUE = {"B1": 3.725, "T": 7.226}
# Independent AoT constraints for (length, settings, outcomes).
INDEPENDENT_CONSTRAINTS = {
    (2, 2, 2): 2, (3, 2, 2): 14, (3, 3, 2): 60, (4, 2, 2): 70, (5, 2, 2): 310,
}
TABLE_TOLERANCE = 1e-9
# The CLI's default confidence level for certify.
CONFIDENCE = 0.68


def witness_length(witness: str) -> int:
    return len(WITNESS_TERMS[witness][0].split("|")[1])


def _index(digits: str, base: int, symbols: str = "0123456789") -> int:
    idx = 0
    for ch in digits:
        idx = idx * base + symbols.index(ch)
    return idx


# ---------------------------------------------------------------------------
# Counts files
# ---------------------------------------------------------------------------

def write_counts_file(path, counts: np.ndarray, length: int) -> None:
    """Write a ``counts v1`` file for a binary-outcome, two-setting table."""
    lines = ["counts v1", f"length: {length}", "settings: 2", "outcomes: 2"]
    for x in range(2**length):
        lines += ["", f"sequence: {np.binary_repr(x, length)}",
                  f"n: {int(counts[x].sum())}", "discarded: 0"]
        for a in range(2**length):
            label = np.binary_repr(a, length).replace("0", "+").replace("1", "-")
            lines.append(f"{label} {int(counts[x, a])}")
    path.write_text("\n".join(lines) + "\n")


def read_counts_file(text: str) -> tuple[int, int, str | None, np.ndarray]:
    """Parse a binary-outcome counts file into (length, settings, witness,
    counts[x_idx, a_idx])."""
    header: dict[str, str] = {}
    records: list[tuple[str, dict[str, int]]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "counts v1":
            continue
        key, sep, rest = line.partition(":")
        if sep and key == "sequence":
            records.append((rest.strip(), {}))
        elif sep and not records:
            header[key] = rest.strip()
        elif sep:
            records[-1][1][key] = int(rest)
        else:
            outcome, count = line.split()
            records[-1][1][outcome] = int(count)
    length, settings = int(header["length"]), int(header["settings"])
    counts = np.zeros((settings**length, 2**length), dtype=np.int64)
    for x_txt, fields in records:
        x = _index(x_txt, settings)
        n = fields.pop("n")
        fields.pop("discarded", None)
        for outcome, k in fields.items():
            counts[x, _index(outcome, 2, OUTCOME_SYMBOLS)] = k
        if counts[x].sum() != n:
            raise ValueError(f"sequence {x_txt}: counts do not sum to n={n}")
    return length, settings, header.get("witness"), counts


def aot_null_counts(rng: np.random.Generator, length: int, shots: int) -> np.ndarray:
    """Counts drawn from a random two-setting table that satisfies AoT
    exactly: the step-``t`` outcome depends only on the settings up to ``t``
    and the outcomes before it."""
    p_plus = [rng.uniform(0.15, 0.85, size=(2**t, 2 ** (t - 1))) for t in range(1, length + 1)]
    probs = np.ones((2**length, 2**length))
    for x in range(2**length):
        for a in range(2**length):
            for t in range(1, length + 1):
                p = p_plus[t - 1][x >> (length - t), a >> (length - t + 1)]
                probs[x, a] *= p if (a >> (length - t)) & 1 == 0 else 1.0 - p
    return np.stack([rng.multinomial(shots, row / row.sum()) for row in probs])


def _as_tensor(table: np.ndarray, length: int, settings: int) -> np.ndarray:
    """``table[x_idx, a_idx]`` as axes ``(x_1..x_L, a_1..a_L)``."""
    return table.reshape((settings,) * length + (2,) * length)


def lr_statistic(counts: np.ndarray, length: int, settings: int) -> float:
    """AoT likelihood-ratio statistic: unconstrained multinomials against
    the pooled factorized fit, from prefix sums of the count tensor."""
    def xlogy_ratio(num, den):
        mask = num > 0
        return float(np.sum(num[mask] * np.log(num[mask] / np.broadcast_to(den, num.shape)[mask])))

    log_alt = xlogy_ratio(counts.astype(float), counts.sum(axis=1, keepdims=True).astype(float))
    tensor = _as_tensor(counts.astype(float), length, settings)
    log_null = 0.0
    for t in range(1, length + 1):
        later = tuple(range(t, length)) + tuple(range(length + t, 2 * length))
        num = tensor.sum(axis=later)
        log_null += xlogy_ratio(num, num.sum(axis=-1, keepdims=True))
    return max(0.0, 2.0 * (log_alt - log_null))


def strategy_count(length: int, settings: int, outcomes: int) -> int:
    return outcomes ** sum(settings**t for t in range(1, length + 1))


def _close(value: float, expected: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= tol


# ---------------------------------------------------------------------------
# Checks, one per command
# ---------------------------------------------------------------------------

def check_sample(stdout: str, path, witness: str, shots: int) -> list[str]:
    if stdout.strip() != f"wrote {path}":
        return [f"unexpected sample output {stdout.strip()!r}"]
    length, settings, named, counts = read_counts_file(path.read_text())
    problems = []
    if (length, settings, named) != (witness_length(witness), 2, witness):
        problems.append(f"counts header {(length, settings, named)} for witness {witness}")
    if not np.all(counts.sum(axis=1) == shots):
        problems.append(f"not every sequence has {shots} shots")
    return problems


def check_certify(stdout: str, path, witness: str) -> list[str]:
    report = json.loads(stdout)
    length, _settings, _named, counts = read_counts_file(path.read_text())
    freq = counts / counts.sum(axis=1, keepdims=True)
    value = 0.0
    inv_n = 0.0
    for term in WITNESS_TERMS[witness]:
        outcomes, settings = term.split("|")
        x = _index(settings, 2)
        value += freq[x, _index(outcomes, 2, OUTCOME_SYMBOLS)]
        inv_n += 1.0 / (2.0 * counts[x].sum())
    halfwidth = math.sqrt(-math.log((1.0 - CONFIDENCE) / 2.0) * inv_n)
    problems = []
    if not _close(report["value"], value, 1e-12):
        problems.append(f"value {report['value']} != {value}")
    if not _close(report["halfwidth"], halfwidth, 1e-12):
        problems.append(f"halfwidth {report['halfwidth']} != {halfwidth}")
    if report["qubit_bound"] != QUBIT_BOUND[witness]:
        problems.append(f"qubit bound {report['qubit_bound']}")
    if report["algebraic_max"] != ALGEBRAIC_MAX[witness]:
        problems.append(f"algebraic max {report['algebraic_max']}")
    if report["total_shots"] != int(counts.sum()):
        problems.append(f"total shots {report['total_shots']}")
    if not report["certified"] or report["verdict"] != "dimension >= 3 certified":
        problems.append(f"verdict {report['verdict']!r} at value {value:.4f}")
    if witness in NOISY_VALUE and abs(value - NOISY_VALUE[witness]) > 5 * halfwidth:
        problems.append(f"value {value:.4f} far from the noisy optimum {NOISY_VALUE[witness]}")
    return problems


def check_aot_test(stdout: str, path, montecarlo: int | None = None,
                   seed: int | None = None) -> list[str]:
    report = json.loads(stdout)
    length, settings, _named, counts = read_counts_file(path.read_text())
    statistic = lr_statistic(counts, length, settings)
    dof = INDEPENDENT_CONSTRAINTS[(length, settings, 2)]
    problems = []
    if not _close(report["statistic"], statistic, 1e-9 * max(1.0, statistic)):
        problems.append(f"statistic {report['statistic']} != {statistic}")
    if report["dof"] != dof:
        problems.append(f"dof {report['dof']} != {dof}")
    p_value = float(chi2.sf(report["statistic"], dof))
    if not _close(report["p_value"], p_value, 1e-9 * max(p_value, 1e-300)):
        problems.append(f"p-value {report['p_value']} != {p_value}")
    if montecarlo is not None:
        mc = report.get("montecarlo") or {}
        exceed = mc.get("p_value", -1.0) * (montecarlo + 1) - 1
        if mc.get("replications") != montecarlo or mc.get("seed") != seed:
            problems.append(f"monte carlo ran {mc.get('replications')} with seed {mc.get('seed')}")
        if not (-1e-6 <= exceed <= montecarlo + 1e-6 and abs(exceed - round(exceed)) < 1e-6):
            problems.append(f"monte carlo p-value {mc.get('p_value')} is not (1+k)/(N+1)")
    return problems


def check_bound(stdout: str, witness: str, method: str, seed: int | None = None) -> list[str]:
    report = json.loads(stdout)
    problems = []
    if not _close(report["value"], QUBIT_BOUND[witness], BOUND_TOLERANCE):
        problems.append(f"bound {report['value']} for {witness}, expected {QUBIT_BOUND[witness]}")
    if not report["evaluations"] > 0:
        problems.append("no evaluations reported")
    if method == "generic" and (report["restarts"], report["seed"]) != (50, seed):
        problems.append(f"restarts/seed {report['restarts']}/{report['seed']}")
    expected_method = "closed_form" if method == "closed" else "nested_generic"
    if report["method"] != expected_method:
        problems.append(f"method {report['method']}")
    return problems


def check_polytope(stdout: str, scenario: tuple[int, int, int],
                   witness: str | None = None) -> list[str]:
    report = json.loads(stdout)
    problems = []
    if report["strategies"] != strategy_count(*scenario):
        problems.append(f"strategies {report['strategies']}")
    if report["independent_constraints"] != INDEPENDENT_CONSTRAINTS[scenario]:
        problems.append(f"independent constraints {report['independent_constraints']}")
    if witness is not None:
        if report["algebraic_max"] != ALGEBRAIC_MAX[witness]:
            problems.append(f"algebraic max {report['algebraic_max']}")
        moves = report["first_maximizer"]
        value = 0
        for term in WITNESS_TERMS[witness]:
            outcomes, settings = term.split("|")
            value += all(
                moves[t][_index(settings[: t + 1], 2)] == OUTCOME_SYMBOLS.index(outcomes[t])
                for t in range(len(settings))
            )
        if value != ALGEBRAIC_MAX[witness] or report["num_maximizers"] < 1:
            problems.append(f"first maximizer scores {value}")
    return problems


def check_simulate(stdout: str, length: int, noise: tuple[float, float]) -> list[str]:
    report = json.loads(stdout)
    rows = report["rows"]
    size = 2**length
    if len(rows) != size * size:
        return [f"{len(rows)} table rows for length {length}"]
    table = np.zeros((size, size))
    for row in rows:
        table[_index(row["settings"], 2), _index(row["outcomes"], 2, OUTCOME_SYMBOLS)] = row["p"]
    problems = []
    if report.get("noise") != {"bright": noise[0], "dark": noise[1]}:
        problems.append(f"noise {report.get('noise')}")
    if table.min() < -TABLE_TOLERANCE or table.max() > 1 + TABLE_TOLERANCE:
        problems.append("probabilities outside [0, 1]")
    if np.max(np.abs(table.sum(axis=1) - 1.0)) > TABLE_TOLERANCE:
        problems.append("rows not normalized")
    tensor = _as_tensor(table, length, 2)
    for k in range(1, length):
        marginal = tensor.sum(axis=tuple(range(length + k, 2 * length)))
        first = marginal[(slice(None),) * k + (slice(0, 1),) * (length - k)]
        if np.max(np.abs(marginal - first)) > TABLE_TOLERANCE:
            problems.append(f"AoT violated at prefix length {k}")
    return problems
