"""Measurement protocols built from ion-trap style pulse blocks.

A measurement block is ``U D C P0 U'``: a basis-permuting unitary, a
fluorescence detection that discriminates level 0 (dark) from the span of
levels 1 and 2 (bright), Doppler cooling, re-preparation of level 0, and a
final unitary that sets the post-measurement state. Cooling and
re-preparation carry no quantum action in the ideal model; they stay in
the grammar as anchors for the classical readout-noise model.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qcore
from .qcore import (
    DensityMatrix,
    Effect,
    Instrument,
    KrausMap,
    Unitary,
    basis_ket,
    identity,
    ketbra,
    pauli_matrices,
)

OUTCOME_LABELS = ("+", "-")

BRIGHT = "bright"
DARK = "dark"


class PulsePrimitive(enum.Enum):
    """Vocabulary of the pulse-sequence grammar."""

    P0 = "P0"
    PI01 = "pi01"
    PI02 = "pi02"
    IDLE = "I"
    DETECT = "D"
    COOL = "C"


_UNITARY_PRIMITIVES = (PulsePrimitive.PI01, PulsePrimitive.PI02, PulsePrimitive.IDLE)


@dataclass(frozen=True)
class PhaseConfig:
    """Unintended-but-fixed phases picked up by each unitary primitive.

    They provably cancel in every ideal protocol probability (all states
    involved are basis states); a property test asserts this.
    """

    pi01: float = 0.0
    pi02: float = 0.0
    idle: tuple[float, float] = (0.0, 0.0)


def _unitary_for(prim: PulsePrimitive, phases: PhaseConfig) -> Unitary:
    if prim is PulsePrimitive.PI01:
        return qcore.pi01(phases.pi01)
    if prim is PulsePrimitive.PI02:
        return qcore.pi02(phases.pi02)
    if prim is PulsePrimitive.IDLE:
        return qcore.idle(*phases.idle)
    raise ValueError(f"{prim} is not a unitary primitive")


def parse_pulse_token(token: str) -> PulsePrimitive:
    for prim in PulsePrimitive:
        if token == prim.value:
            return prim
    raise ValueError(f"unknown pulse token {token!r}")


@dataclass(frozen=True, eq=False)
class MeasureAndPrepare:
    """A projective (or general two-outcome) measurement followed by the
    preparation of a pure state that depends only on the setting."""

    effect_bright: Effect
    effect_dark: Effect
    prepared_state: DensityMatrix
    bright_outcome: str

    def __post_init__(self) -> None:
        if self.bright_outcome not in OUTCOME_LABELS:
            raise ValueError(f"bright outcome must be one of {OUTCOME_LABELS}")
        total = self.effect_bright.mat + self.effect_dark.mat
        if np.max(np.abs(total - identity(self.effect_bright.dim))) > 1e-12:
            raise ValueError("bright and dark effects must sum to the identity")
        purity = float(np.trace(self.prepared_state.mat @ self.prepared_state.mat).real)
        if abs(purity - 1.0) > 1e-9:
            raise ValueError("prepared state must be pure")

    @property
    def dim(self) -> int:
        return self.effect_bright.dim

    def effect(self, outcome: str) -> Effect:
        if outcome == self.bright_outcome:
            return self.effect_bright
        if outcome in OUTCOME_LABELS:
            return self.effect_dark
        raise KeyError(f"unknown outcome label {outcome!r}")

    def detection_kind(self, outcome: str) -> str:
        return BRIGHT if outcome == self.bright_outcome else DARK

    def to_instrument(self) -> Instrument:
        prep_ket = _pure_ket(self.prepared_state)
        maps = {
            label: _prepare_kraus(self.effect(label), prep_ket)
            for label in OUTCOME_LABELS
        }
        return Instrument(dim=self.dim, outcomes=OUTCOME_LABELS, maps=maps)


def _pure_ket(state: DensityMatrix) -> np.ndarray:
    vals, vecs = np.linalg.eigh(state.mat)
    if vals[-1] < 1.0 - 1e-9:
        raise ValueError("state is not pure")
    return vecs[:, -1]


def _prepare_kraus(effect: Effect, prep_ket: np.ndarray) -> KrausMap:
    """Kraus operators of ``rho -> tr(E rho) |prep><prep|``."""
    vals, vecs = np.linalg.eigh(effect.mat)
    ops = [
        math.sqrt(val) * np.outer(prep_ket, vecs[:, k].conj())
        for k, val in enumerate(vals)
        if val > 1e-12
    ]
    if not ops:
        ops = [np.zeros((effect.dim, effect.dim), dtype=complex)]
    return KrausMap(tuple(ops))


def measure_and_prepare_from_pulses(
    block: Sequence[PulsePrimitive],
    bright_outcome: str,
    phases: PhaseConfig = PhaseConfig(),
) -> MeasureAndPrepare:
    """Interpret a measurement block ``U D C P0 U'`` on the qutrit.

    The detection discriminates level 0 against levels 1 and 2 after the
    first unitary, so the realized effects are ``U^dag (|1><1| + |2><2|) U``
    (bright) and ``U^dag |0><0| U`` (dark); both branches leave the system
    in ``U' |0>``.
    """
    block = tuple(block)
    if len(block) != 5:
        raise ValueError("measurement block must have exactly 5 primitives")
    if (
        block[0] not in _UNITARY_PRIMITIVES
        or block[1] is not PulsePrimitive.DETECT
        or block[2] is not PulsePrimitive.COOL
        or block[3] is not PulsePrimitive.P0
        or block[4] not in _UNITARY_PRIMITIVES
    ):
        raise ValueError(
            "measurement block must match the grammar: unitary, D, C, P0, unitary"
        )
    u = _unitary_for(block[0], phases).mat
    u_prep = _unitary_for(block[4], phases).mat
    bright_proj = ketbra(3, 1, 1) + ketbra(3, 2, 2)
    dark_proj = ketbra(3, 0, 0)
    prepared = DensityMatrix.from_ket(u_prep @ basis_ket(3, 0))
    return MeasureAndPrepare(
        effect_bright=Effect(u.conj().T @ bright_proj @ u),
        effect_dark=Effect(u.conj().T @ dark_proj @ u),
        prepared_state=prepared,
        bright_outcome=bright_outcome,
    )


def instrument_from_pulses(
    block: Sequence[PulsePrimitive],
    bright_outcome: str,
    phases: PhaseConfig = PhaseConfig(),
) -> Instrument:
    return measure_and_prepare_from_pulses(block, bright_outcome, phases).to_instrument()


def measure_and_prepare_instrument(
    effects: dict[str, Effect], prepared: dict[str, DensityMatrix]
) -> Instrument:
    """Measure-and-prepare instrument with per-outcome preparations.

    Each branch measures its effect and then re-prepares the matching pure
    state; completeness of the effects is validated by the instrument.
    """
    if set(effects) != set(prepared):
        raise ValueError("effects and prepared states must cover the same outcomes")
    labels = tuple(effects)
    dim = next(iter(effects.values())).dim
    maps = {
        label: _prepare_kraus(effects[label], _pure_ket(prepared[label]))
        for label in labels
    }
    return Instrument(dim=dim, outcomes=labels, maps=maps)


@dataclass(frozen=True, eq=False)
class Protocol:
    """A fixed set of instruments applied at every time step, plus the
    initial state. Instruments are time-independent: the same object is
    reused at each step of a sequence."""

    dim: int
    initial_state: DensityMatrix
    instruments: dict[int, Instrument]
    detection_kinds: dict[tuple[int, str], str] | None = None

    def __post_init__(self) -> None:
        if sorted(self.instruments) != list(range(len(self.instruments))):
            raise ValueError("instrument settings must be labeled 0..m-1")
        if self.initial_state.dim != self.dim:
            raise ValueError("initial state dimension mismatch")
        outcome_sets = set()
        for setting, instr in self.instruments.items():
            if instr.dim != self.dim:
                raise ValueError(f"instrument {setting} has dim {instr.dim}")
            outcome_sets.add(instr.outcomes)
        if len(outcome_sets) != 1:
            raise ValueError("all instruments must share one outcome alphabet")

    @property
    def num_settings(self) -> int:
        return len(self.instruments)

    @property
    def outcomes(self) -> tuple[str, ...]:
        return self.instruments[0].outcomes


@dataclass(frozen=True)
class MeasurementRow:
    """One setting's pulse block and its fluorescence-to-outcome assignment."""

    block: tuple[PulsePrimitive, ...]
    bright_outcome: str


@dataclass(frozen=True)
class ProtocolSpec:
    """Declarative protocol description that round-trips the text format."""

    dim: int
    initial_level: int
    rows: tuple[MeasurementRow, ...]

    def build(self, phases: PhaseConfig = PhaseConfig()) -> Protocol:
        if self.dim != 3:
            raise ValueError("pulse-block protocols are defined on the qutrit")
        measurements = {
            setting: measure_and_prepare_from_pulses(row.block, row.bright_outcome, phases)
            for setting, row in enumerate(self.rows)
        }
        kinds = {
            (setting, label): mp.detection_kind(label)
            for setting, mp in measurements.items()
            for label in OUTCOME_LABELS
        }
        return Protocol(
            dim=self.dim,
            initial_state=DensityMatrix.basis_state(self.dim, self.initial_level),
            instruments={s: mp.to_instrument() for s, mp in measurements.items()},
            detection_kinds=kinds,
        )


def _row(tokens: str, bright: str) -> MeasurementRow:
    block = tuple(parse_pulse_token(t) for t in tokens.split())
    return MeasurementRow(block=block, bright_outcome=bright)


# Pulse sequences realizing the extreme points that maximize each witness.
# The three-step quantity reuses the first pair: same measurements, longer
# sequences.
OPTIMAL_PULSES: dict[str, ProtocolSpec] = {
    "B1": ProtocolSpec(3, 0, (_row("pi02 D C P0 pi01", "+"), _row("pi01 D C P0 pi02", "+"))),
    "B2": ProtocolSpec(3, 0, (_row("pi01 D C P0 pi01", "+"), _row("pi02 D C P0 pi02", "+"))),
    "B3": ProtocolSpec(3, 0, (_row("I D C P0 pi01", "-"), _row("pi01 D C P0 pi02", "+"))),
    "B4": ProtocolSpec(3, 0, (_row("pi01 D C P0 pi01", "+"), _row("I D C P0 pi02", "-"))),
}
OPTIMAL_PULSES["T"] = OPTIMAL_PULSES["B1"]


def optimal_protocol(witness_id: str, phases: PhaseConfig = PhaseConfig()) -> Protocol:
    """The qutrit protocol reaching the algebraic maximum of a registry witness."""
    try:
        spec = OPTIMAL_PULSES[witness_id]
    except KeyError:
        raise KeyError(f"no optimal protocol for witness {witness_id!r}") from None
    return spec.build(phases)


# ---------------------------------------------------------------------------
# Extremal qubit measurements
# ---------------------------------------------------------------------------

def extremal_qubit_measurements(
    p: float,
    q: float,
    cos_gamma: float,
    prepared: tuple[DensityMatrix, DensityMatrix] | None = None,
) -> tuple[MeasureAndPrepare, MeasureAndPrepare]:
    """The extremal two-outcome qubit measurement pair.

    Effects are ``E(+|0) = [(2-p) 1 + p c.sigma]/2`` and its complement
    (computed by exact subtraction, so the pair sums to the identity
    exactly), and the analogue with ``q`` and ``d``, where ``c`` points
    along the first axis and ``d`` lies in the 1-2 plane at relative angle
    ``gamma``. The prepared states default to the Bloch vectors aligned
    with ``+-(p X0 c - q X1 d)``, which realize the optimal qubit value of
    the three-step witness; pass ``prepared`` to override.
    """
    for name, val in (("p", p), ("q", q)):
        if not -1e-12 <= val <= 1.0 + 1e-12:
            raise ValueError(f"{name}={val} outside [0, 1]")
    if not -1.0 - 1e-12 <= cos_gamma <= 1.0 + 1e-12:
        raise ValueError(f"cos_gamma={cos_gamma} outside [-1, 1]")
    cg = min(1.0, max(-1.0, cos_gamma))
    c = np.array([1.0, 0.0, 0.0])
    d = np.array([cg, math.sqrt(max(0.0, 1.0 - cg * cg)), 0.0])

    sig = pauli_matrices()
    plus0 = Effect(0.5 * ((2.0 - p) * identity(2) + p * np.einsum("i,ijk->jk", c, sig)))
    plus1 = Effect(0.5 * ((2.0 - q) * identity(2) + q * np.einsum("i,ijk->jk", d, sig)))

    if prepared is None:
        root = math.sqrt(max(0.0, p * p + q * q - 2.0 * p * q * cg))
        x0 = 2.0 - p + q + root
        x1 = p + 2.0 - q + root
        axis = p * x0 * c - q * x1 * d
        norm = float(np.linalg.norm(axis))
        alpha = axis / norm if norm > 1e-12 else c
        prepared = (qcore.bloch_to_state(alpha), qcore.bloch_to_state(-alpha))

    pair = tuple(
        MeasureAndPrepare(
            effect_bright=plus_effect,
            effect_dark=qcore.complement(plus_effect),
            prepared_state=prep,
            bright_outcome="+",
        )
        for plus_effect, prep in zip((plus0, plus1), prepared)
    )
    return pair[0], pair[1]


def extremal_qubit_effects(
    p: float,
    q: float,
    cos_gamma: float,
    prepared: tuple[DensityMatrix, DensityMatrix] | None = None,
) -> tuple[Instrument, Instrument]:
    """:func:`extremal_qubit_measurements` packaged as instruments."""
    mp0, mp1 = extremal_qubit_measurements(p, q, cos_gamma, prepared)
    return mp0.to_instrument(), mp1.to_instrument()


# ---------------------------------------------------------------------------
# Protocol specification files
# ---------------------------------------------------------------------------

def format_protocol_spec(spec: ProtocolSpec) -> str:
    lines = [
        "protocol v1",
        f"dim: {spec.dim}",
        f"initial: {spec.initial_level}",
    ]
    for row in spec.rows:
        tokens = " ".join(prim.value for prim in row.block)
        lines.append(f"measurement: {tokens} ; bright {row.bright_outcome}")
    return "\n".join(lines) + "\n"


def parse_protocol_spec(text: str) -> ProtocolSpec:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "protocol v1":
        raise ValueError("protocol file must start with 'protocol v1'")
    dim: int | None = None
    initial: int | None = None
    rows: list[MeasurementRow] = []
    for ln in lines[1:]:
        key, _, rest = ln.partition(":")
        key, rest = key.strip(), rest.strip()
        if key == "dim":
            dim = int(rest)
        elif key == "initial":
            initial = int(rest)
        elif key == "measurement":
            tokens, _, bright_part = rest.partition(";")
            bright_words = bright_part.split()
            if len(bright_words) != 2 or bright_words[0] != "bright":
                raise ValueError(f"malformed measurement line: {ln!r}")
            if bright_words[1] not in OUTCOME_LABELS:
                raise ValueError(f"unknown bright outcome {bright_words[1]!r}")
            block = tuple(parse_pulse_token(t) for t in tokens.split())
            rows.append(MeasurementRow(block=block, bright_outcome=bright_words[1]))
        else:
            raise ValueError(f"unknown key {key!r} in protocol file")
    if dim is None or initial is None or not rows:
        raise ValueError("protocol file must declare dim, initial and measurements")
    return ProtocolSpec(dim=dim, initial_level=initial, rows=tuple(rows))
