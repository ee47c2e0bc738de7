"""End-to-end tests of the command-line interface and its file formats."""

import dataclasses
import json

import numpy as np
import pytest

from temporalwitness import bounds, cli, protocols, simulator, stats
from temporalwitness.cli import build_parser, format_counts_file, main, parse_counts_file
from temporalwitness.simulator import Scenario


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
        table = simulator.parse_correlation_table(out)
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
            simulator.protocol_detection_resolver(protocol),
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
            simulator.protocol_detection_resolver(protocol),
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
            simulator.protocol_detection_resolver(protocols.optimal_protocol("B2")),
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
    ("simulate", "--protocol", "{protocol}", "--length", "4"),
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
        # Every report must read as json.dumps(report, sort_keys=True) writes it.
        protocol = tmp_path / "t.protocol"
        protocol.write_text(protocols.format_protocol_spec(protocols.OPTIMAL_PULSES["T"]))
        counts = tmp_path / "counts.txt"
        run(capsys, "sample", "T", "--shots", "300", "--noise", "0.96", "0.98",
            "--seed", "5", "--output", str(counts))
        argv = [arg.format(protocol=protocol, counts=counts) for arg in argv]
        code, out, _ = run(capsys, *argv, "--format", "machine")
        assert code == 0
        assert json.dumps(json.loads(out), sort_keys=True) == out.rstrip("\n")
