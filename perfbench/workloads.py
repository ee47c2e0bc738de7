"""The four benchmark workloads: command lists, generated inputs and checks.

A workload is a fixed list of CLI invocations that one client runs back to
back (a closed loop). Its inputs come from the workload seed: the seed is
passed to ``--seed`` of ``sample``, ``bound`` and ``aot-test --montecarlo``,
and it draws the counts file of ``long_histories``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

NOISE = ("0.96", "0.98")
SHOTS = 3000

# The qutrit protocol of the three-step witness (the B1 pulse blocks).
T_PROTOCOL = """protocol v1
dim: 3
initial: 0
measurement: pi02 D C P0 pi01 ; bright +
measurement: pi01 D C P0 pi02 ; bright +
"""


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``check`` maps its standard output to a list of
    problems (empty when the output is correct)."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]


@dataclass(frozen=True)
class Workload:
    """``main`` labels the command the workload exists to measure; ``light``
    labels its cheapest command, which is also the one run in fresh
    processes for ``cold_cmd_s``."""

    name: str
    commands: tuple[Command, ...]
    main: str
    light: str

    def first(self, label: str) -> Command:
        return next(cmd for cmd in self.commands if cmd.label == label)


def certify_short(seed: int, work: Path) -> Workload:
    commands = []
    for witness in ("B1", "B2", "B3", "B4", "T"):
        path = work / f"counts_{witness}.txt"
        commands += [
            Command("sample", ("sample", witness, "--shots", str(SHOTS), "--noise", *NOISE,
                               "--seed", str(seed), "--output", str(path)),
                    partial(ref.check_sample, path=path, witness=witness, shots=SHOTS)),
            Command("certify", ("certify", str(path), "--format", "machine"),
                    partial(ref.check_certify, path=path, witness=witness)),
            Command("aot_test", ("aot-test", str(path), "--format", "machine"),
                    partial(ref.check_aot_test, path=path)),
            Command("aot_mc", ("aot-test", str(path), "--montecarlo", "1000", "--seed", str(seed),
                               "--format", "machine"),
                    partial(ref.check_aot_test, path=path, montecarlo=1000, seed=seed)),
        ]
    return Workload("certify_short", tuple(commands), main="aot_mc", light="certify")


def qubit_bounds(seed: int, work: Path) -> Workload:
    commands = [
        Command("bound_closed", ("bound", "T", "--method", "closed", "--format", "machine"),
                partial(ref.check_bound, witness="T", method="closed")),
    ]
    for witness in ("B1", "B3", "T"):
        commands.append(
            Command(f"bound_{witness}",
                    ("bound", witness, "--method", "generic", "--seed", str(seed),
                     "--format", "machine"),
                    partial(ref.check_bound, witness=witness, method="generic", seed=seed)))
    return Workload("qubit_bounds", tuple(commands), main="bound_T", light="bound_closed")


def polytope_scan(seed: int, work: Path) -> Workload:
    commands = [
        Command(f"polytope_{witness}", ("polytope", witness, "--format", "machine"),
                partial(ref.check_polytope, scenario=(ref.witness_length(witness), 2, 2),
                        witness=witness))
        for witness in ("B1", "T")
    ]
    for scenario in ((3, 3, 2), (4, 2, 2), (5, 2, 2)):
        commands.append(
            Command("polytope_{}_{}_{}".format(*scenario),
                    ("polytope", "--scenario", *map(str, scenario), "--format", "machine"),
                    partial(ref.check_polytope, scenario=scenario)))
    return Workload("polytope_scan", tuple(commands), main="polytope_5_2_2", light="polytope_B1")


def long_histories(seed: int, work: Path) -> Workload:
    protocol = work / "protocol_T.txt"
    protocol.write_text(T_PROTOCOL)
    counts = work / "counts_L4.txt"
    ref.write_counts_file(counts, ref.aot_null_counts(np.random.default_rng(seed), 4, SHOTS), 4)
    commands = [
        Command(f"simulate_L{length}",
                ("simulate", "--protocol", str(protocol), "--length", str(length),
                 "--noise", *NOISE, "--format", "machine"),
                partial(ref.check_simulate, length=length, noise=tuple(map(float, NOISE))))
        for length in (4, 5, 6)
    ]
    commands += [
        Command("aot_test", ("aot-test", str(counts), "--format", "machine"),
                partial(ref.check_aot_test, path=counts)),
        Command("aot_mc", ("aot-test", str(counts), "--montecarlo", "200", "--seed", str(seed),
                           "--format", "machine"),
                partial(ref.check_aot_test, path=counts, montecarlo=200, seed=seed)),
    ]
    return Workload("long_histories", tuple(commands), main="simulate_L6", light="simulate_L4")


WORKLOADS = {
    build.__name__: build
    for build in (certify_short, qubit_bounds, polytope_scan, long_histories)
}
