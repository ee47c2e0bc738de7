"""Command-line interface: simulate protocols, compute bounds, enumerate
the polytope, and certify dimension from count files.

Exit codes: 0 on success, 2 on invalid input, 3 when a size guard trips.
Every command is deterministic given its inputs and seed; machine-readable
reports embed both. Importing this module loads neither numpy nor
``dataclasses``: each command imports the layers it runs when it is
dispatched, and ``polytope`` runs on the standard library alone.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import DEFAULT_SEED, GuardExceeded, __version__

if TYPE_CHECKING:  # the annotations' names; each command imports its layers itself
    from . import polytope, simulator, stats

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GUARD = 3

# CPython writes ints of at most 4300 digits as text; a strategy count at
# or past this trips the guard. Built once: the power costs 50 us.
_UNPRINTABLE_COUNT = 10**4300


# ---------------------------------------------------------------------------
# Counts files
# ---------------------------------------------------------------------------

def format_counts_file(
    counts: stats.CountsTable, witness_id: str | None = None
) -> str:
    from .scenario import format_header, sequence_labels

    lines = format_header("counts", counts.scenario)
    if witness_id is not None:
        lines.append(f"witness: {witness_id}")
    x_labels, a_labels = sequence_labels(counts.scenario)
    for x_txt, n, discarded, row in zip(x_labels, counts.repetitions.tolist(),
                                        counts.discarded.tolist(), counts.counts.tolist()):
        lines += ["", f"sequence: {x_txt}", f"n: {n}", f"discarded: {discarded}"]
        lines += [f"{a_txt} {k}" for a_txt, k in zip(a_labels, row)]
    return "\n".join(lines) + "\n"


def parse_counts_file(text: str) -> tuple[stats.CountsTable, str | None]:
    """Parse a counts file; returns the table and the optional witness id.

    The format is strict: unknown keys are rejected, no header key and no
    key or outcome label within a record may repeat, every setting sequence
    must appear exactly once, and each record's outcome counts must sum to
    its declared ``n``. Every ``n``, ``discarded`` and outcome count is
    written in ASCII decimal digits with a value in ``[0, 2^63 - 1]``, and
    the sum is taken on Python ints, so no count can wrap the int64 tables.
    """
    import numpy as np

    from . import stats
    from .protocols import document_lines, natural
    from .scenario import Scenario, sequence_indexers

    lines = document_lines(text, "counts")
    starts = [i for i, ln in enumerate(lines) if ln.startswith("sequence:")] + [len(lines)]
    # The header: one `key: value` line per known key, none repeated.
    header: dict[str, int | str] = {}
    for ln in lines[:starts[0]]:
        key, sep, value = ln.partition(":")
        key, value = key.strip(), value.strip()
        if not sep or key not in ("length", "settings", "outcomes", "witness"):
            raise ValueError(f"unknown counts-file key {key!r}: {ln!r}")
        if key in header:
            raise ValueError(f"repeated counts-file key {key!r}: {ln!r}")
        header[key] = value if key == "witness" else natural(value, ln)
    try:
        scenario = Scenario(header["length"], header["settings"], header["outcomes"])
    except KeyError as exc:
        raise ValueError(f"counts file is missing the {exc.args[0]!r} header") from None
    witness_id = header.get("witness")
    # The outcome counts and the discards of each record, by setting index.
    rows: dict[int, list[int]] = {}
    discarded: dict[int, int] = {}
    setting_index, outcome_index = sequence_indexers(scenario)
    for start, end in zip(starts, starts[1:]):
        x_txt = lines[start][len("sequence:"):].strip()
        x_idx = setting_index(x_txt)
        if x_idx in rows:
            raise ValueError(f"duplicate record for sequence {x_txt!r}")
        row = rows[x_idx] = [0] * scenario.num_outcome_sequences
        # The record's values by key, `n`, `discarded` or an outcome label:
        # a repeated line would otherwise overwrite the first, so a second
        # `discarded: 0` could hide discards.
        record: dict[str, int] = {}
        for ln in lines[start + 1:end]:
            key, sep, value = ln.partition(":")
            if sep and key.strip() in ("n", "discarded"):
                key, value, a_idx = key.strip(), value.strip(), None
            else:
                parts = ln.split()
                if len(parts) != 2:
                    raise ValueError(f"malformed counts line {ln!r}")
                key, value = parts
                a_idx = outcome_index(key)
            if key in record:
                raise ValueError(f"record {x_txt!r} repeats {key!r}: {ln!r}")
            record[key] = count = natural(value, ln)
            if a_idx is not None:
                row[a_idx] = count
        if "n" not in record:
            raise ValueError(f"record {x_txt!r} is missing 'n'")
        declared_n = record.pop("n")
        discarded[x_idx] = record.pop("discarded", 0)
        total = sum(record.values())
        if total != declared_n:
            raise ValueError(
                f"counts for sequence {x_txt!r} sum to {total}, expected n={declared_n}"
            )
    if len(rows) != scenario.num_setting_sequences:
        raise ValueError("counts file does not cover every setting sequence")
    order = range(scenario.num_setting_sequences)
    table = stats.CountsTable(scenario=scenario,
                              counts=np.array([rows[i] for i in order], dtype=np.int64),
                              discarded=np.array([discarded[i] for i in order], dtype=np.int64))
    return table, witness_id


# ---------------------------------------------------------------------------
# Report documents
# ---------------------------------------------------------------------------

def _digest(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _JSONText:
    """A machine-report value that is already JSON text. It holds the text
    rather than being a ``str``, so :func:`_emit` hands ``text`` to
    ``print`` as it stands and never copies it."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def _emit(args: argparse.Namespace, text_lines: list[str], machine: dict) -> None:
    """Print the text lines, or the machine report as one JSON object.

    The keys go in sorted order. Each run of ordinary values is written by
    one ``json.dumps(..., sort_keys=True)``; a :class:`_JSONText` value is
    spliced in as written. The report is printed piece by piece, with one
    ``print(*pieces, sep="")``, so a long spliced text is written once and
    never joined into a larger string. The result is byte-identical to
    ``json.dumps(report, sort_keys=True)`` of the report with that text
    decoded, provided the text holds only finite floats (``repr`` is what
    ``json`` writes for them) and strings that need no escaping.
    """
    if args.format == "machine":
        machine = {"tool": "temporalwitness", "version": __version__, **machine}
        pieces = []
        runs = itertools.groupby(sorted(machine.items()),
                                 key=lambda item: isinstance(item[1], _JSONText))
        for spliced, items in runs:
            if spliced:
                for key, value in items:
                    pieces += [", ", json.dumps(key), ": ", value.text]
            else:
                pieces += [", ", json.dumps(dict(items), sort_keys=True)[1:-1]]
        pieces[0] = "{"
        print(*pieces, "}", sep="")
    else:
        for line in text_lines:
            print(line)


def _table_rows(table: simulator.CorrelationTable) -> str:
    """The machine report's rows as JSON text: ``head + repr(p) + tail`` per
    cell, one head per outcome label and one tail per setting label, and
    the list's brackets on the first and last cells. Entries are finite and
    labels are digits, ``+`` and ``-``, as :func:`_emit` needs."""
    from . import simulator
    from .scenario import sequence_labels

    x_labels, a_labels = sequence_labels(table.scenario)
    heads = [f'{{"outcomes": "{a_txt}", "p": ' for a_txt in a_labels]
    tails = [f', "settings": "{x_txt}"}}' for x_txt in x_labels]
    cells = [head + p_txt + tail
             for tail, row in zip(tails, simulator.entry_texts(table, repr))
             for head, p_txt in zip(heads, row)]
    cells[0] = "[" + cells[0]
    cells[-1] += "]"
    return ", ".join(cells)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import protocols, simulator
    from .scenario import get_witness

    witness = get_witness(args.witness) if args.witness else None
    if args.protocol is not None:
        spec = protocols.parse_protocol_spec(Path(args.protocol).read_text())
        protocol = spec.build()
        shape = (protocol.num_settings, len(protocol.outcomes))
        if witness is not None and shape != (witness.scenario.settings, witness.scenario.outcomes):
            raise ValueError(
                f"--protocol {args.protocol} has {shape[0]} settings and {shape[1]} outcomes, "
                f"but witness {witness.id} has {witness.scenario.settings} settings and "
                f"{witness.scenario.outcomes} outcomes"
            )
    else:
        if witness is None:
            raise ValueError("give a witness id or a --protocol file")
        protocol = protocols.optimal_protocol(witness.id)
    length = args.length
    if length is None and witness is not None:
        length = witness.scenario.length
    if length is None:
        raise ValueError("--length is required when no witness sets it")
    if witness is not None and length != witness.scenario.length:
        raise ValueError(
            f"--length {length} does not match witness {witness.id}, "
            f"whose length is {witness.scenario.length}"
        )
    table = simulator.sequence_probabilities(protocol, length)
    if args.noise is not None:
        noise = simulator.ReadoutNoise(*args.noise)
        table = simulator.apply_readout_noise(table, protocol.bright, noise)
    value = simulator.evaluate_witness(witness, table) if witness else None

    if args.format == "machine":
        text, machine = [], {"command": "simulate", "length": length,
                             "rows": _JSONText(_table_rows(table))}
    else:
        text, machine = [simulator.format_correlation_table(table).rstrip("\n")], {}
    if args.noise is not None:
        machine["noise"] = {"bright": args.noise[0], "dark": args.noise[1]}
    if value is not None:
        text.append(f"witness {witness.id} value: {value:.6f}")
        machine["witness"] = witness.id
        machine["value"] = value
    _emit(args, text, machine)
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from . import bounds
    from .scenario import get_witness

    witness = get_witness(args.witness)
    if args.method == "closed":
        if witness.id != "T":
            raise ValueError("the closed form covers only the three-step witness T")
        resolution = 40 if args.grid_resolution is None else args.grid_resolution
        result = bounds.optimize_tee_bound(grid_resolution=resolution)
    else:
        resolution = 10 if args.grid_resolution is None else args.grid_resolution
        if not 4 <= resolution <= 10:
            raise ValueError(
                f"--grid-resolution {resolution} is outside [4, 10], "
                "the range of the 5-axis generic search"
            )
        result = bounds.optimize_qubit_bound(
            witness, restarts=args.restarts, seed=args.seed, grid_resolution=resolution
        )
    text = [
        f"witness: {witness.id}",
        f"method: {result.method}",
        f"qubit bound: {result.value:.6f}",
        f"evaluations: {result.evaluations}",
    ]
    if result.params is not None:
        text.append(
            f"argmax: p={result.params.p:.4f} q={result.params.q:.4f} "
            f"cos_gamma={result.params.cos_gamma:.4f}"
        )
    if result.effect_params is not None:
        a0, b0, a1, b1, cg = result.effect_params
        text.append(
            f"effects: a0={a0:.4f} b0={b0:.4f} a1={a1:.4f} b1={b1:.4f} cos_gamma={cg:.4f}"
        )
    if result.seed is not None:
        text.append(f"seed: {result.seed}")
    machine = {
        "command": "bound",
        "witness": witness.id,
        "method": result.method,
        "value": result.value,
        "evaluations": result.evaluations,
        "restarts": result.restarts,
        "seed": result.seed,
        "effect_params": result.effect_params,
        "params": asdict(result.params) if result.params else None,
    }
    _emit(args, text, machine)
    return EXIT_OK


def _format_strategy(strategy: polytope.DeterministicStrategy) -> str:
    from .scenario import Scenario, sequence_labels

    sc = strategy.scenario
    _, symbols = sequence_labels(Scenario(1, sc.settings, sc.outcomes))
    parts = []
    for t, table in enumerate(strategy.moves):
        prefixes, _ = sequence_labels(Scenario(t + 1, sc.settings, sc.outcomes))
        assignments = (f"{prefix}->{symbols[outcome]}" for prefix, outcome in zip(prefixes, table))
        parts.append(f"f{t + 1}: " + " ".join(assignments))
    return "; ".join(parts)


def _cmd_polytope(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from . import polytope
    from .scenario import Scenario, get_witness

    if args.witness is not None:
        witness = get_witness(args.witness)
        scenario = witness.scenario
    elif args.scenario is not None:
        witness = None
        scenario = Scenario(*args.scenario)
    else:
        raise ValueError("give a witness id or --scenario LENGTH SETTINGS OUTCOMES")
    n_strategies = polytope.num_deterministic_strategies(scenario)
    if n_strategies >= _UNPRINTABLE_COUNT:
        raise GuardExceeded(
            f"{scenario.outcomes}^{polytope.strategy_exponent(scenario)} deterministic "
            "strategies have too many digits to print"
        )
    n_independent = polytope.independent_constraint_count(scenario)
    text = [
        f"scenario: length={scenario.length} settings={scenario.settings} "
        f"outcomes={scenario.outcomes}",
        f"deterministic strategies: {n_strategies}",
        f"independent AoT constraints: {n_independent}",
    ]
    machine = {
        "command": "polytope",
        "scenario": asdict(scenario),
        "strategies": n_strategies,
        "independent_constraints": n_independent,
    }
    if witness is not None:
        value, maximizers = polytope.algebraic_max(witness)
        text += [
            f"witness: {witness.id}",
            f"algebraic max: {value:g}",
            f"maximizers: {len(maximizers)}",
            f"first maximizer: {_format_strategy(maximizers[0])}",
        ]
        machine.update(
            witness=witness.id,
            algebraic_max=value,
            num_maximizers=len(maximizers),
            first_maximizer=[list(moves) for moves in maximizers[0].moves],
        )
    _emit(args, text, machine)
    return EXIT_OK


def _load_counts(args: argparse.Namespace) -> tuple[stats.CountsTable, str | None, str]:
    raw = Path(args.counts_file).read_text()
    counts, witness_id = parse_counts_file(raw)
    return counts, witness_id, _digest(raw)


def _cmd_certify(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from . import stats
    from .scenario import get_witness

    counts, witness_id, digest = _load_counts(args)
    if args.witness:
        witness_id = args.witness
    if witness_id is None:
        raise ValueError("counts file names no witness; pass --witness")
    witness = get_witness(witness_id)
    report = stats.certify(witness, counts, stats.ConfidenceSpec(args.confidence))
    verdict = "dimension >= 3 certified" if report.certified else "not certified"
    text = [
        f"witness: {report.witness_id}",
        f"value: {report.value:.4f} +- {report.halfwidth:.4f} "
        f"({report.confidence:.0%} confidence)",
        f"qubit bound: {report.qubit_bound:g}",
        f"algebraic max: {report.algebraic_max:g}",
        f"violation ratio: {report.violation_ratio:.4f}",
        f"qutrit fraction: {report.fraction:.4f} +- {report.fraction_halfwidth:.4f}",
        f"shots: {report.total_shots} (discarded {report.total_discarded}, "
        f"rate {report.discard_rate:.4f})",
        f"verdict: {verdict}",
    ]
    machine = {
        "command": "certify",
        "input_sha256": digest,
        **asdict(report),
        "discard_rate": report.discard_rate,
        "verdict": verdict,
    }
    _emit(args, text, machine)
    return EXIT_OK


def _cmd_aot_test(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from . import stats

    counts, _witness_id, digest = _load_counts(args)
    mc = None if args.montecarlo is None else stats.aot_lr_test_montecarlo(
        counts, args.montecarlo, args.seed)
    result = stats.aot_lr_test(counts) if mc is None else mc.asymptotic
    text = [
        f"statistic: {result.statistic:.6f}",
        f"dof: {result.dof}",
        f"p-value: {result.p_value:.6g}",
        f"sigma equivalent: {result.sigma_equivalent:.3f}",
    ]
    machine = {"command": "aot-test", "input_sha256": digest, **asdict(result)}
    if mc is not None:
        text += [
            f"monte-carlo p-value: {mc.p_value:.6g} "
            f"({mc.replications} replications, seed {mc.seed})",
            f"monte-carlo sigma equivalent: {mc.sigma_equivalent:.3f}",
        ]
        machine["montecarlo"] = {
            "replications": mc.replications,
            "seed": mc.seed,
            "p_value": mc.p_value,
            "sigma_equivalent": mc.sigma_equivalent,
        }
    _emit(args, text, machine)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    from . import protocols, simulator, stats
    from .scenario import get_witness

    witness = get_witness(args.witness)
    protocol = protocols.optimal_protocol(witness.id)
    table = simulator.sequence_probabilities(protocol, witness.scenario.length)
    if args.noise is not None:
        table = simulator.apply_readout_noise(
            table, protocol.bright, simulator.ReadoutNoise(*args.noise))
    counts = stats.sample_counts(table, args.shots, args.seed)
    document = format_counts_file(counts, witness_id=witness.id)
    if args.output:
        Path(args.output).write_text(document)
        print(f"wrote {args.output}")
    else:
        print(document, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temporal-witness",
        description="Dimension certification from temporal correlations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=("text", "machine"), default="text",
            help="text (default) or a machine-readable JSON report",
        )

    p = sub.add_parser("simulate", help="exact correlation table of a protocol")
    p.add_argument("witness", nargs="?", help="registry witness id (B1..B4, T)")
    p.add_argument("--protocol", help="protocol specification file")
    p.add_argument("--length", type=int, help="sequence length")
    p.add_argument(
        "--noise", nargs=2, type=float, metavar=("BRIGHT", "DARK"),
        help="readout fidelities for bright and dark detection",
    )
    add_format(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bound", help="qubit upper bound of a witness")
    p.add_argument("witness")
    p.add_argument("--method", choices=("closed", "generic"), default="generic")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--grid-resolution", type=int,
        help="grid points per axis: closed 40 by default and at least 20; "
             "generic 10 by default and within [4, 10]",
    )
    add_format(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("polytope", help="algebraic maximum and AoT structure")
    p.add_argument("witness", nargs="?")
    p.add_argument(
        "--scenario", nargs=3, type=int, metavar=("LENGTH", "SETTINGS", "OUTCOMES")
    )
    add_format(p)
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("certify", help="dimension certification from a counts file")
    p.add_argument("counts_file")
    p.add_argument("--witness", help="override the witness named in the file")
    p.add_argument("--confidence", type=float, default=0.68)
    add_format(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("aot-test", help="likelihood-ratio arrow-of-time test")
    p.add_argument("counts_file")
    p.add_argument(
        "--montecarlo", type=int, metavar="N",
        help="calibrate the p-value with N null-model replications",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_format(p)
    p.set_defaults(func=_cmd_aot_test)

    p = sub.add_parser("sample", help="draw synthetic counts from a simulated table")
    p.add_argument("witness")
    p.add_argument("--shots", type=int, required=True, help="repetitions per sequence")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--noise", nargs=2, type=float, metavar=("BRIGHT", "DARK"),
        help="apply readout noise before sampling",
    )
    p.add_argument("--output", help="write the counts file here instead of stdout")
    p.set_defaults(func=_cmd_sample)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of :func:`main`, not at import,
    and reused after that."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
