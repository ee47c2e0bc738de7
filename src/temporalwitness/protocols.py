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
from .qcore import COMPLETENESS_TOL, basis_ket, identity, ketbra, pauli_matrices
from .scenario import OUTCOME_LABELS


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


def _unitary_for(prim: PulsePrimitive, phases: PhaseConfig) -> np.ndarray:
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


def measure_and_prepare_from_pulses(
    block: Sequence[PulsePrimitive],
    bright_outcome: str,
    phases: PhaseConfig = PhaseConfig(),
) -> tuple[np.ndarray, np.ndarray]:
    """Interpret a measurement block ``U D C P0 U'`` on the qutrit.

    The detection discriminates level 0 against levels 1 and 2 after the
    first unitary, so the realized effects are ``U^dag (|1><1| + |2><2|) U``
    (bright) and ``U^dag |0><0| U`` (dark); both branches leave the system
    in ``U' |0>``. Returns the ``(2, 3, 3)`` effects in ``OUTCOME_LABELS``
    order, with ``bright_outcome`` naming the bright one, and the
    ``(3, 3)`` prepared state.
    """
    if bright_outcome not in OUTCOME_LABELS:
        raise ValueError(f"bright outcome must be one of {OUTCOME_LABELS}")
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
    u = _unitary_for(block[0], phases)
    bright = u.conj().T @ (ketbra(3, 1, 1) + ketbra(3, 2, 2)) @ u
    dark = u.conj().T @ ketbra(3, 0, 0) @ u
    prepared = _unitary_for(block[4], phases) @ basis_ket(3, 0)
    effects = (bright, dark) if bright_outcome == OUTCOME_LABELS[0] else (dark, bright)
    return np.array(effects), np.outer(prepared, prepared.conj())


@dataclass(frozen=True, eq=False)
class Protocol:
    """A measure-and-prepare protocol: the ``(D, D)`` initial state and,
    for setting ``x`` and outcome ``a``, the effect ``effects[x, a]`` that
    the step measures and the state ``preparations[x, a]`` that it leaves
    behind. All three are plain complex arrays, the last two of shape
    ``(m, d, D, D)``. ``bright``, when given, is the ``(m, d)`` boolean
    mask of the branches that fluoresce, which readout noise needs.
    Construction checks the arrays and stores read-only copies.

    A dimension verdict drawn from this protocol's tables rests on two
    assumptions, and is void without them:

    - *time-independent instruments*: setting ``x`` applies the same
      ``(E, sigma)`` at every step, which is all this class can express;
    - *arrow of time*: a setting is not known before an earlier step
      reports.

    With step-dependent instruments a classical bit reaches the algebraic
    maximum of B1, and its table passes every AoT constraint.
    """

    initial_state: np.ndarray
    effects: np.ndarray
    preparations: np.ndarray
    bright: np.ndarray | None = None

    def __post_init__(self) -> None:
        initial = np.array(self.initial_state, dtype=complex)
        effects = np.array(self.effects, dtype=complex)
        preparations = np.array(self.preparations, dtype=complex)
        shape = effects.shape
        if len(shape) != 4 or shape[0] < 1 or shape[1] < 2 or shape[2] != shape[3]:
            raise ValueError(f"effects must have shape (m, d, D, D) with d >= 2, got {shape}")
        if preparations.shape != shape:
            raise ValueError(f"preparations have shape {preparations.shape}, effects {shape}")
        if initial.shape != shape[2:]:
            raise ValueError(f"initial state has shape {initial.shape}, effects {shape}")
        if not all(np.isfinite(arr).all() for arr in (initial, effects, preparations)):
            raise ValueError("initial state, effects and preparations must be finite")
        qcore.check_effects(effects)
        dev = np.max(np.abs(effects.sum(axis=1) - identity(shape[-1])))
        if dev > COMPLETENESS_TOL:
            raise ValueError(f"effects do not sum to the identity (deviation {dev:.3e})")
        qcore.check_states(initial, "initial state")
        qcore.check_states(preparations, "preparation")
        arrays = {"initial_state": initial, "effects": effects, "preparations": preparations}
        if self.bright is not None:
            bright = np.array(self.bright)
            if bright.shape != shape[:2] or bright.dtype != bool:
                raise ValueError(f"bright must be a boolean array of shape {shape[:2]}, "
                                 f"got {bright.dtype} of shape {bright.shape}")
            arrays["bright"] = bright
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.effects.shape[-1]

    @property
    def num_settings(self) -> int:
        return self.effects.shape[0]

    @property
    def outcomes(self) -> tuple[str, ...]:
        """Outcome labels, as the table and counts files write them."""
        d = self.effects.shape[1]
        return OUTCOME_LABELS if d == 2 else tuple(str(a) for a in range(d))


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
        steps = [
            measure_and_prepare_from_pulses(row.block, row.bright_outcome, phases)
            for row in self.rows
        ]
        initial = basis_ket(self.dim, self.initial_level)
        return Protocol(
            initial_state=np.outer(initial, initial.conj()),
            effects=np.array([effects for effects, _ in steps]),
            preparations=np.array([[prepared, prepared] for _, prepared in steps]),
            bright=[[label == row.bright_outcome for label in OUTCOME_LABELS]
                    for row in self.rows],
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
    p: float, q: float, cos_gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """The extremal two-outcome qubit measurement pair, as the ``(2, 2, 2,
    2)`` arrays ``(effects, preparations)`` that :class:`Protocol` takes.

    Effects are ``E(+|0) = [(2-p) 1 + p c.sigma]/2`` and its complement
    (computed by exact subtraction, so the pair sums to the identity
    exactly), and the analogue with ``q`` and ``d``, where ``c`` points
    along the first axis and ``d`` lies in the 1-2 plane at relative angle
    ``gamma``. Setting 0 prepares, on either outcome, the Bloch vector
    along ``p X0 c - q X1 d`` and setting 1 its opposite; these realize
    the optimal qubit value of the three-step witness.
    """
    for name, val in (("p", p), ("q", q)):
        if not -1e-12 <= val <= 1.0 + 1e-12:
            raise ValueError(f"{name}={val} outside [0, 1]")
    cg = qcore.clamp_cos_gamma(cos_gamma)
    c = np.array([1.0, 0.0, 0.0])
    d = np.array([cg, math.sqrt(max(0.0, 1.0 - cg * cg)), 0.0])

    sig = pauli_matrices()
    plus = [
        0.5 * ((2.0 - s) * identity(2) + s * np.einsum("i,ijk->jk", n, sig))
        for s, n in ((p, c), (q, d))
    ]

    root = math.sqrt(max(0.0, p * p + q * q - 2.0 * p * q * cg))
    x0 = 2.0 - p + q + root
    x1 = p + 2.0 - q + root
    axis = p * x0 * c - q * x1 * d
    norm = float(np.linalg.norm(axis))
    alpha = axis / norm if norm > 1e-12 else c
    prepared = (qcore.bloch_to_state(alpha), qcore.bloch_to_state(-alpha))

    effects = np.array([[e, identity(2) - e] for e in plus])
    return effects, np.array([[prep, prep] for prep in prepared])


# ---------------------------------------------------------------------------
# Text documents
# ---------------------------------------------------------------------------
# Protocol, table and counts files share one grammar: a `kind v1` line, `#`
# comments, `key: value` lines whose key never repeats, ASCII decimal numbers.

INT64_MAX = 2**63 - 1


def document_lines(text: str, kind: str) -> list[str]:
    """The stripped lines of a ``kind v1`` document after that first line,
    without blank lines and ``#`` comments."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
    if not lines or lines[0] != f"{kind} v1":
        raise ValueError(f"{kind} file must start with '{kind} v1'")
    return lines[1:]


def natural(text: str, line: str) -> int:
    """The number ``text`` of document ``line``: ASCII decimal digits with a
    value in ``[0, INT64_MAX]``, the range of the int64 tables. Leading
    zeros are dropped before ``int`` sees more than 19 digits, so its
    settable limit on digits never decides what reads."""
    if text.isascii() and text.isdigit():
        if len(text) > 19:
            text = text.lstrip("0") or "0"
        if len(text) <= 19 and (value := int(text)) <= INT64_MAX:
            return value
    raise ValueError(f"line {line!r} needs a decimal integer in [0, {INT64_MAX}]")


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
    """Read a protocol file: ``dim``, ``initial``, one ``measurement`` per setting."""
    header: dict[str, int] = {}
    rows: list[MeasurementRow] = []
    for ln in document_lines(text, "protocol"):
        key, _, rest = ln.partition(":")
        key, rest = key.strip(), rest.strip()
        if key in ("dim", "initial"):
            if key in header:
                raise ValueError(f"repeated protocol-file key {key!r}: {ln!r}")
            header[key] = natural(rest, ln)
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
    if len(header) != 2 or not rows:
        raise ValueError("protocol file must declare dim, initial and measurements")
    return ProtocolSpec(dim=header["dim"], initial_level=header["initial"], rows=tuple(rows))
