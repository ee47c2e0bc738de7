"""End-to-end tests of the command-line interface and its file formats."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from temporalwitness import bounds, cli, protocols, simulator, stats
from temporalwitness.cli import build_parser, format_counts_file, main, parse_counts_file
from temporalwitness.scenario import Scenario, get_witness


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_ideal_first_witness(self, capsys):
        code, out, _ = run(capsys, "simulate", "B1")
        assert code == 0
        assert "witness B1 value: 4.000000" in out
        assert "00 ++ 1" in out

    def test_noisy_three_step(self, capsys):
        code, out, _ = run(capsys, "simulate", "T", "--noise", "0.96", "0.98")
        assert code == 0
        assert "witness T value: 7.226112" in out

    def test_perfect_noise_is_ideal(self, capsys):
        code, out, _ = run(capsys, "simulate", "B1", "--noise", "1.0", "1.0")
        assert code == 0
        assert "witness B1 value: 4.000000" in out

    def test_protocol_file(self, capsys, tmp_path):
        spec = protocols.OPTIMAL_PULSES["B3"]
        path = tmp_path / "b3.protocol"
        path.write_text(protocols.format_protocol_spec(spec))
        code, out, _ = run(
            capsys, "simulate", "B3", "--protocol", str(path), "--length", "2"
        )
        assert code == 0
        assert "witness B3 value: 4.000000" in out

    def test_machine_format(self, capsys):
        code, out, _ = run(capsys, "simulate", "B2", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(4.0)
        assert doc["tool"] == "temporalwitness"
        assert len(doc["rows"]) == 16

    def test_unknown_witness(self, capsys):
        code, _, err = run(capsys, "simulate", "B7")
        assert code == 2
        assert "unknown witness" in err

    def test_length_other_than_witness_rejected_before_simulating(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("simulated a table the witness cannot score")

        monkeypatch.setattr(simulator, "sequence_probabilities", unreachable)
        code, out, err = run(capsys, "simulate", "T", "--length", "5")
        assert code == 2
        assert out == ""
        assert "--length 5" in err and "length is 3" in err

    def test_length_zero_is_a_length(self, capsys):
        # A length of 0 used to count as absent and print the length-2 table.
        code, out, err = run(capsys, "simulate", "B1", "--length", "0")
        assert code == 2
        assert out == ""
        assert "--length 0" in err

    @pytest.mark.parametrize("witness", ["B1", "T"])
    def test_protocol_other_than_witness_rejected_before_simulating(
        self, capsys, tmp_path, monkeypatch, witness
    ):
        path, _ = settings_protocol(tmp_path, 3)

        def unreachable(*args):
            raise AssertionError("simulated a table the witness cannot score")

        monkeypatch.setattr(simulator, "sequence_probabilities", unreachable)
        code, out, err = run(capsys, "simulate", witness, "--protocol", str(path))
        assert code == 2
        assert out == ""
        assert f"{path.name} has 3 settings and 2 outcomes" in err
        assert f"witness {witness} has 2 settings and 2 outcomes" in err


def settings_protocol(tmp_path, settings):
    """A protocol file with ``settings`` measurements, the B1 rows repeated."""
    spec = protocols.OPTIMAL_PULSES["B1"]
    rows = (spec.rows * settings)[:settings]
    path = tmp_path / f"settings{settings}.protocol"
    path.write_text(protocols.format_protocol_spec(dataclasses.replace(spec, rows=rows)))
    return path, dataclasses.replace(spec, rows=rows)


class TestLabelLimit:
    def test_ten_settings_round_trip(self, capsys, tmp_path):
        path, spec = settings_protocol(tmp_path, 10)
        code, out, _ = run(capsys, "simulate", "--protocol", str(path), "--length", "2")
        assert code == 0
        table = oracles.parse_correlation_table(out)
        assert table.scenario == Scenario(2, 10, 2)
        expected = simulator.sequence_probabilities(spec.build(), 2).probs
        assert np.array_equal(table.probs, [[float(f"{p:.12g}") for p in row] for row in expected])
        counts = stats.sample_counts(table, 10, rng=3)
        parsed, _ = parse_counts_file(format_counts_file(counts))
        assert np.array_equal(parsed.counts, counts.counts)

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_eleven_settings_rejected(self, capsys, tmp_path, fmt):
        path, _ = settings_protocol(tmp_path, 11)
        code, out, err = run(capsys, "simulate", "--protocol", str(path), "--length", "1",
                             "--format", fmt)
        assert code == 2
        assert out == ""
        assert "one digit per step" in err and "10 settings" in err


class TestMain:
    def test_parser_built_once_and_reused_across_commands(self, capsys, monkeypatch):
        builds = []

        def counted():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            code, out, _ = run(capsys, "simulate", "B1", "--noise", "0.9", "0.9",
                               "--format", "machine")
            assert code == 0
            noisy = json.loads(out)
            assert noisy["noise"] == {"bright": 0.9, "dark": 0.9}
            assert noisy["value"] < 4.0
            code, out, _ = run(capsys, "polytope", "B1")
            assert code == 0
            assert "algebraic max: 4" in out
            # No option of the first command carries over.
            code, out, _ = run(capsys, "simulate", "B1")
            assert code == 0
            assert "witness B1 value: 4.000000" in out
            assert builds == [1]
        finally:
            cli._parser.cache_clear()


class TestBound:
    def test_closed_form(self, capsys):
        code, out, _ = run(capsys, "bound", "T", "--method", "closed")
        assert code == 0
        assert "qubit bound: 5.2256" in out

    def test_closed_form_rejects_two_step(self, capsys):
        code, _, err = run(capsys, "bound", "B1", "--method", "closed")
        assert code == 2
        assert "closed form" in err

    def test_generic_two_step(self, capsys):
        code, out, _ = run(
            capsys, "bound", "B1", "--method", "generic", "--restarts", "3"
        )
        assert code == 0
        value = float(next(ln for ln in out.splitlines() if "qubit bound" in ln).split(":")[1])
        assert value == pytest.approx(3.0, abs=2e-3)

    def test_machine_report_deterministic(self, capsys):
        args = ("bound", "B2", "--restarts", "2", "--seed", "7", "--format", "machine")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["seed"] == 7
        assert doc["method"] == "nested_generic"

    @pytest.mark.parametrize("args,expected", [
        (("T", "--method", "generic", "--seed", "1"),
         {"evaluations": 122743, "value": 5.225659097611121,
          "effect_params": [0.5, 1.0, 0.5, 1.0, -0.45812285014182225]}),
        # Every one of the ten best grid cells of B1 and B2 is exactly 3.0;
        # ties go to the lowest grid index.
        (("B1", "--method", "generic", "--seed", "1"),
         {"evaluations": 113289, "value": 3.0, "effect_params": [1.0, 0.0, 0.5, 1.0, -1.0]}),
        (("B2", "--method", "generic", "--seed", "1"),
         {"evaluations": 111033, "value": 3.0, "effect_params": [1.0, 0.0, 0.5, 1.0, -1.0]}),
        (("B3", "--method", "generic", "--seed", "1"),
         {"evaluations": 121763, "value": 3.186227883702518,
          "effect_params": [0.5, 1.0, 0.5, 1.0, 0.7562852080007836]}),
        (("B4", "--method", "generic", "--seed", "1"),
         {"evaluations": 121723, "value": 3.186227883702518,
          "effect_params": [0.5, 1.0, 0.5, 1.0, 0.7562852069971163]}),
        (("T", "--method", "closed"),
         {"evaluations": 65629, "value": 5.22565909761112}),
    ])
    def test_machine_report_pinned(self, capsys, args, expected):
        # The searches take scipy's Nelder-Mead steps exactly, so a change to
        # their bookkeeping must leave every reported number as it is.
        code, out, _ = run(capsys, "bound", *args, "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert {key: doc[key] for key in expected} == expected

    def test_grid_past_the_guard_exits_before_evaluating(self, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "_tee_closed_form_array",
                            lambda *z: pytest.fail("evaluated the grid"))
        code, out, err = run(
            capsys, "bound", "T", "--method", "closed", "--grid-resolution", "1000"
        )
        assert code == 3
        assert out == ""
        assert "exceeds the guard" in err

    def test_restarts_past_the_guard_exit_before_evaluating(self, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "_nested_bound",
                            lambda *a: pytest.fail("evaluated the objective"))
        code, out, err = run(
            capsys, "bound", "T", "--method", "generic", "--restarts", "100000000"
        )
        assert code == 3
        assert out == ""
        assert "100000010 refinement starts" in err
        assert "exceed the guard" in err

    @pytest.mark.parametrize("resolution", ["0", "1000"])
    def test_generic_grid_outside_range_rejected(self, capsys, monkeypatch, resolution):
        monkeypatch.setattr(bounds, "optimize_qubit_bound",
                            lambda *a, **k: pytest.fail("ran the search"))
        code, out, err = run(
            capsys, "bound", "B1", "--method", "generic", "--grid-resolution", resolution
        )
        assert code == 2
        assert out == ""
        assert "outside [4, 10]" in err

    def test_generic_grid_default_and_explicit_agree(self, capsys):
        default = run(capsys, "bound", "B1", "--restarts", "0", "--format", "machine")
        explicit = run(capsys, "bound", "B1", "--restarts", "0", "--format", "machine",
                       "--grid-resolution", "10")
        assert default == explicit
        assert default[0] == 0


class TestPolytope:
    def test_three_step_witness(self, capsys):
        code, out, _ = run(capsys, "polytope", "T")
        assert code == 0
        assert "algebraic max: 8" in out
        assert "independent AoT constraints: 14" in out
        assert "deterministic strategies: 16384" in out
        assert "maximizers: 1" in out

    def test_two_step_witness(self, capsys):
        code, out, _ = run(capsys, "polytope", "B2")
        assert code == 0
        assert "algebraic max: 4" in out
        assert "independent AoT constraints: 2" in out

    def test_bare_scenario(self, capsys):
        code, out, _ = run(capsys, "polytope", "--scenario", "1", "2", "2")
        assert code == 0
        assert "independent AoT constraints: 0" in out

    def test_guard_exit_code(self, capsys):
        code, _, err = run(capsys, "polytope", "--scenario", "8", "4", "4")
        assert code == 3
        assert "guard" in err

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_unprintable_strategy_count_trips_the_guard(self, capsys, fmt):
        # 2^111110 strategies: the count has more digits than CPython
        # writes, so the command stops before printing anything.
        code, out, err = run(capsys, "polytope", "--scenario", "5", "10", "2", "--format", fmt)
        assert (code, out) == (3, "")
        assert "2^111110 deterministic strategies" in err

    def test_unprintable_table_size_trips_the_guard(self, capsys):
        code, out, err = run(capsys, "polytope", "--scenario", "5000", "10", "2")
        assert (code, out) == (3, "")
        assert "table of 10^5000 x 2^5000 entries exceeds the guard" in err

    def test_long_strategy_count_still_prints(self, capsys):
        code, out, _ = run(capsys, "polytope", "--scenario", "4", "10", "2")
        assert code == 0
        assert f"deterministic strategies: {2**11110}\n" in out

    def test_needs_witness_or_scenario(self, capsys):
        code, _, err = run(capsys, "polytope")
        assert code == 2


class TestCountsFiles:
    def test_round_trip(self, tmp_path):
        table = simulator.sequence_probabilities(protocols.optimal_protocol("B1"), 2)
        counts = stats.sample_counts(table, 1000, rng=5)
        text = format_counts_file(counts, witness_id="B1")
        parsed, wid = parse_counts_file(text)
        assert wid == "B1"
        assert np.array_equal(parsed.counts, counts.counts)
        assert format_counts_file(parsed, witness_id=wid) == text

    def test_rejects_unknown_key(self):
        text = "counts v1\nlength: 1\nsettings: 1\noutcomes: 2\ncolour: red\n"
        with pytest.raises(ValueError, match="unknown counts-file key"):
            parse_counts_file(text)

    def test_rejects_sum_mismatch(self):
        text = (
            "counts v1\nlength: 1\nsettings: 1\noutcomes: 2\n"
            "sequence: 0\nn: 10\ndiscarded: 0\n+ 5\n- 4\n"
        )
        with pytest.raises(ValueError, match="sum to"):
            parse_counts_file(text)

    def test_rejects_missing_sequences(self):
        text = (
            "counts v1\nlength: 1\nsettings: 2\noutcomes: 2\n"
            "sequence: 0\nn: 10\ndiscarded: 0\n+ 5\n- 5\n"
        )
        with pytest.raises(ValueError, match="every setting sequence"):
            parse_counts_file(text)

    def test_rejects_duplicates(self):
        text = (
            "counts v1\nlength: 1\nsettings: 1\noutcomes: 2\n"
            "sequence: 0\nn: 10\ndiscarded: 0\n+ 5\n- 5\n"
            "sequence: 0\nn: 10\ndiscarded: 0\n+ 5\n- 5\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            parse_counts_file(text)


# SHA-256 of the machine report's rows text and of the table file of the
# registry protocols, recorded at commit 49a0be8, before each distinct entry
# was formatted once: the writers must keep every byte.
TABLE_TEXT_DIGESTS = [
    ("T", 4, True, "920df64fa7fdc1996bb712a7e9760372b352a206618ff45a4d2c8a4211f1531f",
     "4b15c69eb00468dd4dd6e14e5cf73578f565f60b93c8af13ed20be30723bf919"),
    ("T", 5, True, "b2d0a178d402786b848387ac7a1f9b5e77ea0bc9753e142703db605d3c73f990",
     "cf7978dc67867df66cb63d8e58867e28270119062f26da25846426856471523e"),
    ("T", 6, True, "84f9150e3865870271f3167ca52b9ccfe90af8535e094301fe431cfe46d40300",
     "4dbfca94d471b8c5adb4f6ecae26e4c1f0f101896c1e4c7f2738487e6fef76d0"),
    ("B1", 2, False, "584b8f6bab49cb06aec1c2a0390504b84d6fdcceacde3740eaa2dcc69ef56d31",
     "2175773c2806b59f372b62e2195dd5120df64f761df57b2b7600096794a5cd19"),
    ("B1", 6, False, "7a32579e7cb61ba0cc7769cdbeb53e007f507ab66867aa18fd89c972756a0cf7",
     "073dd14ddcdb7f708786c1761918830bf2095eab9b4bc260b7a9d464435bf275"),
]


@pytest.mark.parametrize("witness, length, noisy, rows_digest, text_digest", TABLE_TEXT_DIGESTS)
def test_table_texts_pinned(witness, length, noisy, rows_digest, text_digest):
    protocol = protocols.optimal_protocol(witness)
    table = simulator.sequence_probabilities(protocol, length)
    if noisy:
        table = simulator.apply_readout_noise(
            table, protocol.bright,
            simulator.ReadoutNoise(0.96, 0.98))
    assert hashlib.sha256(cli._table_rows(table).encode()).hexdigest() == rows_digest
    text = simulator.format_correlation_table(table)
    assert hashlib.sha256(text.encode()).hexdigest() == text_digest


# SHA-256 of `certify --format machine` on the `sample --shots 3000 --seed 1`
# file of each witness, and on the noisy B3 file with discarded shots per
# setting sequence added, recorded at commit 89c250d. The first discards
# keep the verdict, the second turn it to "not certified".
CERTIFY_DIGESTS = [
    ("B1", False, None, "566ed0bda7ff1570c6c4c537f7824b4bee263ffb6c5b8b1d5c3e12b954cee576"),
    ("B1", True, None, "9e750a28676c36ede3f2b1c251f821cf9cfabc3152fade0c5696d16e45c7216c"),
    ("B3", False, None, "e4f91db1ad2c21d78c2e213f6e0de778930c18263cae3b7df760132ae7ad568e"),
    ("B3", True, None, "9509b11259afd795b3dc066796996dbe0749ad83693fbce93658ee5e23eb636c"),
    ("T", False, None, "bda3a4d8ea6da9f322f0095f2a238e227dd8aeb4532b8cc921fafe3f923281fa"),
    ("T", True, None, "9d7f726d6feae487beeb8f1cd0de3163c4c400a22cebd6f14c8d71d247d8e589"),
    ("B3", True, (100, 400, 700, 300),
     "8e18b42aad0462a20ab10abbfff1a35f160a14cda5442c8054846def089736c2"),
    ("B3", True, (200, 900, 1500, 300),
     "b1f735f94b3a8957c23f059269a169b4e075f4dedeee68b2bd12c5daebf2d510"),
]


@pytest.mark.parametrize("witness, noisy, discarded, digest", CERTIFY_DIGESTS)
def test_certify_reports_pinned(capsys, tmp_path, witness, noisy, discarded, digest):
    path = tmp_path / "counts.txt"
    noise = ("--noise", "0.96", "0.98") if noisy else ()
    assert run(capsys, "sample", witness, "--shots", "3000", "--seed", "1", *noise,
               "--output", str(path))[0] == 0
    if discarded is not None:
        counts, witness_id = parse_counts_file(path.read_text())
        counts = stats.CountsTable(counts.scenario, counts.counts, discarded=discarded)
        path.write_text(format_counts_file(counts, witness_id=witness_id))
    code, out, _ = run(capsys, "certify", str(path), "--format", "machine")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRepeatedLines:
    # A repeated line used to overwrite the first one: a second
    # `discarded: 0` hid the discards that certify scores as failures. The
    # file has 12 shots and 3 discards per record, and `repeat` goes right
    # after the first `line`; every case still sums to n.
    @pytest.mark.parametrize("line, repeat", [
        pytest.param("n: 12", "n: 12", id="n"),
        pytest.param("discarded: 3", "discarded: 0", id="discarded"),
        pytest.param("++ 3", "++ 3", id="outcome"),
        pytest.param("witness: B1", "witness: B2", id="header"),
    ])
    def test_repeated_line_rejected(self, capsys, tmp_path, line, repeat):
        counts = stats.CountsTable(Scenario(2, 2, 2), np.full((4, 4), 3),
                                   discarded=np.full(4, 3))
        text = format_counts_file(counts, witness_id="B1")
        assert f"\n{line}\n" in text
        path = tmp_path / "counts.txt"
        path.write_text(text.replace(f"\n{line}\n", f"\n{line}\n{repeat}\n", 1))
        code, out, err = run(capsys, "certify", str(path))
        assert code == 2
        assert out == ""
        assert repr(repeat) in err

    # int() read `+12`, `0_12` and `١٢` (Arabic-Indic digits) as 12, so these
    # files certified with exit 0. Each `line` is rewritten in place.
    @pytest.mark.parametrize("command", ["certify", "aot-test"])
    @pytest.mark.parametrize("line", ["n: 12", "discarded: 3", "++ 3", "length: 2"])
    @pytest.mark.parametrize("spell", [
        pytest.param(lambda v: f"+{v}", id="plus"),
        pytest.param(lambda v: f"0_{v}", id="underscore"),
        pytest.param(lambda v: v.translate(ARABIC_INDIC), id="arabic-indic"),
    ])
    def test_non_decimal_number_rejected(self, capsys, tmp_path, command, line, spell):
        counts = stats.CountsTable(Scenario(2, 2, 2), np.full((4, 4), 3),
                                   discarded=np.full(4, 3))
        text = format_counts_file(counts, witness_id="B1")
        head, number = line.rsplit(maxsplit=1)
        spelled = f"{head} {spell(number)}"
        path = tmp_path / "counts.txt"
        path.write_text(text.replace(f"\n{line}\n", f"\n{spelled}\n", 1))
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert repr(spelled) in err


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                           "\u0665\u0666\u0667\u0668\u0669")


def counts_record(n=12, discarded=3, counts=(3, 3, 3, 3)):
    """The text of one record of a length-2 counts file."""
    lines = [f"n: {n}", f"discarded: {discarded}"]
    return "\n".join(lines + [f"{a} {k}" for a, k in zip(("++", "+-", "-+", "--"), counts)]) + "\n"


class TestCountsPastInt64:
    # The counts are int64: a value past 2^63 - 1 raised OverflowError, and
    # two counts of 2^62 wrapped the row sum to n = -2^63, so aot-test
    # printed a nan statistic and exited 0.
    @pytest.mark.parametrize("record, line", [
        pytest.param(counts_record(10**20, counts=(10**20, 0, 0, 0)), f"n: {10**20}",
                     id="overflow"),
        pytest.param(counts_record(-2**63, counts=(2**62, 2**62, 0, 0)), f"n: {-2**63}",
                     id="wrapped-sum"),
        pytest.param(counts_record(discarded=2**63), f"discarded: {2**63}", id="discarded"),
        pytest.param(counts_record(counts=(-1, 7, 3, 3)), "++ -1", id="negative"),
        pytest.param(counts_record(counts=("three", 3, 3, 3)), "++ three", id="not-a-number"),
    ])
    def test_rejected(self, capsys, tmp_path, record, line):
        counts = stats.CountsTable(Scenario(2, 2, 2), np.full((4, 4), 3),
                                   discarded=np.full(4, 3))
        text = format_counts_file(counts, witness_id="B1")
        assert counts_record() in text
        path = tmp_path / "counts.txt"
        path.write_text(text.replace(counts_record(), record, 1))
        code, out, err = run(capsys, "aot-test", str(path))
        assert code == 2
        assert out == ""
        assert repr(line) in err

    @pytest.mark.parametrize("command", ["certify", "aot-test"])
    @pytest.mark.parametrize("records", [
        pytest.param([counts_record(2**63 - 1, 2**63 - 1, (2**63 - 1, 0, 0, 0))], id="discarded"),
        pytest.param([counts_record(2**62, 0, (2**62, 0, 0, 0))] * 2, id="records"),
    ])
    def test_total_past_int64_rejected(self, capsys, tmp_path, command, records):
        # Every number fits int64, but sums across records wrapped: aot-test
        # printed a nan statistic and exited 0, and certify blamed zero
        # repetitions.
        counts = stats.CountsTable(Scenario(2, 2, 2), np.full((4, 4), 3),
                                   discarded=np.full(4, 3))
        text = format_counts_file(counts, witness_id="B1")
        for record in records:
            text = text.replace(counts_record(), record, 1)
        path = tmp_path / "counts.txt"
        path.write_text(text)
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert "total more than 9223372036854775807" in err


def run_quietly(*argv):
    """``main`` with its output captured, for tests that cannot take the
    function-scoped ``capsys``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def mutated_lines(lines, mutation, data):
    """The lines of a document with one ``mutation`` applied; ``data``
    draws where."""
    def pick(candidates=range(len(lines))):
        return data.draw(st.sampled_from(list(candidates)))

    numbered = [i for i, ln in enumerate(lines) if ln.split() and ln.split()[-1].isdigit()]
    if mutation == "drop":
        del lines[pick()]
    elif mutation == "repeat":
        line = lines[pick()]
        lines.insert(pick(range(len(lines) + 1)), line)
    elif mutation == "swap":
        i, j = pick(), pick()
        lines[i], lines[j] = lines[j], lines[i]
    elif mutation in ("huge", "negative", "non-decimal"):
        i = pick(numbered)
        head, number = lines[i].rsplit(maxsplit=1)
        value = data.draw(st.sampled_from({
            "huge": [str(2**63), str(2**63 - 1), str(10**20), "9" * 5000],
            "negative": ["-1", f"-{number}", str(-2**63)],
            "non-decimal": ["x", "1.5", "1e3", "0x10", "1_0", "+1", "", f"+{number}",
                            f"0_{number}", number.translate(ARABIC_INDIC)],
        }[mutation]))
        lines[i] = f"{head} {value}"
    elif mutation == "whitespace":
        i = pick()
        at = data.draw(st.integers(0, len(lines[i])))
        space = data.draw(st.sampled_from([" ", "\t", "\r", "\n", "\x0b", "\x0c", "  \t"]))
        lines[i] = lines[i][:at] + space + lines[i][at:]
    elif mutation == "wrap":
        # Counts in range whose sum across records passes 2^63 - 1: two
        # records gain 2^62 shots on their first outcome, or one record
        # discards 2^63 - 1 shots.
        if data.draw(st.booleans()):
            for i in [i for i, ln in enumerate(lines) if ln.startswith("sequence:")][:2]:
                for j in (i + 1, i + 3):
                    head, number = lines[j].rsplit(maxsplit=1)
                    lines[j] = f"{head} {int(number) + 2**62}"
        else:
            lines[pick(i for i in numbered if lines[i].startswith("discarded:"))] = (
                f"discarded: {2**63 - 1}")
    return lines


MUTATIONS = settings(max_examples=100, deadline=None, database=None, derandomize=True)


class TestMutatedCountsFiles:
    # A mutated counts file is read as valid (exit 0) or refused with a
    # message (exit 2, or 3 at a guard): never a traceback, and never a
    # report after an error. A number that is not ASCII decimal is refused.
    @MUTATIONS
    @given(witness=st.sampled_from(["B1", "T"]), seed=st.integers(0, 2**32 - 1),
           mutation=st.sampled_from(["drop", "repeat", "swap", "huge", "negative",
                                     "non-decimal", "whitespace", "truncate", "wrap"]),
           data=st.data())
    def test_exit_is_clean(self, witness, seed, mutation, data):
        rng = np.random.default_rng(seed)
        sc = get_witness(witness).scenario
        table = simulator.sequence_probabilities(protocols.optimal_protocol(witness), sc.length)
        counts = stats.sample_counts(table, int(rng.integers(1, 40)), rng,
                                     discarded=rng.integers(0, 3, sc.num_setting_sequences))
        text = format_counts_file(counts, witness_id=witness)
        if mutation == "truncate":
            text = text[:data.draw(st.integers(0, len(text)))]
        else:
            text = "\n".join(mutated_lines(text.splitlines(), mutation, data)) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "counts.txt"
            path.write_text(text)
            for argv in (("certify", path), ("aot-test", path),
                         ("aot-test", path, "--montecarlo", "20", "--seed", "1")):
                code, out, err = run_quietly(*argv)
                assert code in (0, 2, 3), (argv[0], code, err)
                assert "Traceback" not in err
                if code:
                    assert out == "", (argv[0], code, err)
                # A wrapped sum is refused, not reported as a nan statistic.
                assert "nan" not in out
                if mutation in ("wrap", "non-decimal"):
                    assert code == 2, (argv[0], code, err)


class TestMutatedProtocolFiles:
    # `simulate --protocol` of a mutated protocol file prints a table or
    # exits 2 or 3 with a message: never a traceback, and never a table
    # after an error. A number that is not ASCII decimal is refused.
    @MUTATIONS
    @given(witness=st.sampled_from(sorted(protocols.OPTIMAL_PULSES)),
           mutation=st.sampled_from(["drop", "repeat", "swap", "huge", "negative",
                                     "non-decimal", "whitespace", "truncate"]),
           data=st.data())
    def test_exit_is_clean(self, witness, mutation, data):
        text = protocols.format_protocol_spec(protocols.OPTIMAL_PULSES[witness])
        if mutation == "truncate":
            text = text[:data.draw(st.integers(0, len(text)))]
        else:
            text = "\n".join(mutated_lines(text.splitlines(), mutation, data)) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.protocol"
            path.write_text(text)
            for argv in (("simulate", "--protocol", path, "--length", "2"),
                         ("simulate", witness, "--protocol", path)):
                code, out, err = run_quietly(*argv)
                assert code in (0, 2, 3), (argv, code, err)
                assert "Traceback" not in err
                if code:
                    assert out == "", (argv, code, err)
                if mutation == "non-decimal":
                    assert code == 2, (argv, code, err)


class TestSampleAndCertify:
    def test_pipeline(self, capsys, tmp_path):
        path = tmp_path / "counts.txt"
        code, _, _ = run(
            capsys, "sample", "T", "--shots", "3000", "--seed", "11",
            "--noise", "0.96", "0.98", "--output", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "certify", str(path))
        assert code == 0
        assert "verdict: dimension >= 3 certified" in out
        assert "violation ratio" in out

    def test_sample_deterministic(self, capsys):
        args = ("sample", "B1", "--shots", "100", "--seed", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_certify_machine_report(self, capsys, tmp_path):
        path = tmp_path / "counts.txt"
        run(capsys, "sample", "B1", "--shots", "1000", "--seed", "2",
            "--noise", "0.96", "0.98", "--output", str(path))
        code, out, _ = run(capsys, "certify", str(path), "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["witness_id"] == "B1"
        assert len(doc["input_sha256"]) == 64
        assert doc["confidence"] == 0.68

    def test_certify_missing_file(self, capsys):
        code, _, err = run(capsys, "certify", "/no/such/file")
        assert code == 2

    def test_certify_needs_witness(self, capsys, tmp_path):
        table = simulator.sequence_probabilities(protocols.optimal_protocol("B1"), 2)
        counts = stats.sample_counts(table, 100, rng=1)
        path = tmp_path / "anon.txt"
        path.write_text(format_counts_file(counts))
        code, _, err = run(capsys, "certify", str(path))
        assert code == 2
        assert "--witness" in err
        code, out, _ = run(capsys, "certify", str(path), "--witness", "B1")
        assert code == 0

    def test_simulate_to_certify_round_trip(self, capsys, tmp_path):
        # Exact expected counts stand in for the infinite-shot limit; the
        # certified value must reproduce the simulated one.
        code, out, _ = run(
            capsys, "simulate", "B2", "--noise", "0.96", "0.98", "--format", "machine"
        )
        simulated = json.loads(out)["value"]
        protocol = protocols.optimal_protocol("B2")
        table = simulator.apply_readout_noise(
            simulator.sequence_probabilities(protocol, 2),
            protocol.bright,
            simulator.ReadoutNoise(),
        )
        n = 1250**2
        counts = stats.CountsTable(
            table.scenario, np.rint(table.probs * n).astype(np.int64)
        )
        path = tmp_path / "exact.txt"
        path.write_text(format_counts_file(counts, witness_id="B2"))
        code, out, _ = run(capsys, "certify", str(path), "--format", "machine")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(simulated, abs=1e-6)


class TestAotTestCommand:
    def test_exact_counts_score_zero(self, capsys, tmp_path):
        protocol = protocols.optimal_protocol("B2")
        table = simulator.apply_readout_noise(
            simulator.sequence_probabilities(protocol, 2),
            protocol.bright,
            simulator.ReadoutNoise(),
        )
        counts = stats.CountsTable(
            table.scenario, np.round(table.probs * 10000).astype(np.int64)
        )
        path = tmp_path / "exact.txt"
        path.write_text(format_counts_file(counts))
        code, out, _ = run(capsys, "aot-test", str(path))
        assert code == 0
        assert "sigma equivalent: 0.000" in out

    def test_signaling_flagged(self, capsys, tmp_path):
        probs = np.array(
            [
                [0.6, 0.0, 0.4, 0.0],
                [0.5, 0.0, 0.5, 0.0],
                [0.5, 0.0, 0.5, 0.0],
                [0.5, 0.0, 0.5, 0.0],
            ]
        )
        counts = stats.CountsTable(
            Scenario(2, 2, 2), np.round(probs * 12000).astype(np.int64)
        )
        path = tmp_path / "sig.txt"
        path.write_text(format_counts_file(counts))
        code, out, _ = run(capsys, "aot-test", str(path), "--format", "machine")
        assert code == 0
        assert json.loads(out)["sigma_equivalent"] >= 3.0

    def test_montecarlo_flag(self, capsys, tmp_path):
        table = simulator.sequence_probabilities(protocols.optimal_protocol("B2"), 2)
        noisy = simulator.apply_readout_noise(
            table,
            protocols.optimal_protocol("B2").bright,
            simulator.ReadoutNoise(),
        )
        counts = stats.sample_counts(noisy, 1000, rng=9)
        path = tmp_path / "mc.txt"
        path.write_text(format_counts_file(counts))
        code, out, _ = run(
            capsys, "aot-test", str(path), "--montecarlo", "50", "--seed", "4"
        )
        assert code == 0
        assert "monte-carlo p-value" in out

    def test_montecarlo_reports_the_asymptotic_test(self, capsys, tmp_path):
        counts = stats.sample_counts(simulator.sequence_probabilities(
            protocols.optimal_protocol("T"), 3), 300, rng=5)
        assert (counts.counts == 0).any()
        path = tmp_path / "counts.txt"
        path.write_text(format_counts_file(counts))
        reports = [json.loads(run(capsys, "aot-test", str(path), *argv, "--format", "machine")[1])
                   for argv in ((), ("--montecarlo", "50", "--seed", "4"))]
        keys = ("statistic", "dof", "p_value", "sigma_equivalent")
        assert [json.dumps(reports[1][key]) for key in keys] == [
            json.dumps(reports[0][key]) for key in keys]

    def test_montecarlo_past_the_guard_exits_before_drawing(self, capsys, tmp_path, monkeypatch):
        counts = stats.sample_counts(
            simulator.sequence_probabilities(protocols.optimal_protocol("B1"), 2), 100, rng=3
        )
        path = tmp_path / "counts.txt"
        path.write_text(format_counts_file(counts))
        monkeypatch.setattr(stats, "_draw_counts", lambda *args: pytest.fail("drew counts"))
        replications = stats.MC_GUARD_CELLS // counts.counts.size + 1
        code, out, err = run(capsys, "aot-test", str(path), "--montecarlo", str(replications))
        assert code == 3
        assert out == ""
        assert "exceed the guard" in err

    @pytest.mark.parametrize("replications", ["0", "-3"])
    def test_montecarlo_without_replications_rejected(self, capsys, tmp_path, replications):
        counts = stats.sample_counts(
            simulator.sequence_probabilities(protocols.optimal_protocol("B1"), 2), 100, rng=3
        )
        path = tmp_path / "counts.txt"
        path.write_text(format_counts_file(counts))
        code, out, err = run(capsys, "aot-test", str(path), "--montecarlo", replications)
        assert code == 2
        assert out == ""
        assert "need at least one replication" in err


MACHINE_COMMANDS = [
    ("simulate", "B1"),
    ("simulate", "T", "--noise", "0.96", "0.98"),
    # The T protocol at every length from 1 to 6, ideal and noisy.
    *(("simulate", "--protocol", "{protocol}", "--length", str(length), *noise)
      for length in range(1, 7) for noise in ((), ("--noise", "0.96", "0.98"))),
    ("simulate", "--protocol", "{protocol}", "--length", "3", "--noise", "0.9", "1.0"),
    ("bound", "T", "--method", "closed"),
    ("bound", "B1", "--restarts", "2", "--seed", "3"),
    ("polytope", "T"),
    ("polytope", "--scenario", "2", "2", "2"),
    ("certify", "{counts}"),
    ("aot-test", "{counts}"),
    ("aot-test", "{counts}", "--montecarlo", "50", "--seed", "4"),
]


class TestMachineReports:
    @pytest.mark.parametrize("argv", MACHINE_COMMANDS, ids=" ".join)
    def test_report_is_canonical_json(self, capsys, tmp_path, argv):
        # Every report must read as json.dumps(report, sort_keys=True) writes
        # it, on one line.
        protocol = tmp_path / "t.protocol"
        protocol.write_text(protocols.format_protocol_spec(protocols.OPTIMAL_PULSES["T"]))
        counts = tmp_path / "counts.txt"
        run(capsys, "sample", "T", "--shots", "300", "--noise", "0.96", "0.98",
            "--seed", "5", "--output", str(counts))
        argv = [arg.format(protocol=protocol, counts=counts) for arg in argv]
        code, out, _ = run(capsys, *argv, "--format", "machine")
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"

    def test_spliced_values_between_ordinary_keys(self, capsys):
        # Sorted, the keys run: ordinary, two spliced, ordinary, spliced last.
        machine = {"zz": cli._JSONText('{"a": -0.0}'), "alpha": 1, "rows": [0.25, None],
                   "beta": cli._JSONText("[1.5, 5e-324]"), "beta2": cli._JSONText('"x"')}
        cli._emit(argparse.Namespace(format="machine"), [], machine)
        report = {"tool": "temporalwitness", "version": cli.__version__, "alpha": 1,
                  "rows": [0.25, None], "beta": [1.5, 5e-324], "beta2": "x", "zz": {"a": -0.0}}
        assert capsys.readouterr().out == json.dumps(report, sort_keys=True) + "\n"
