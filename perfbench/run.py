"""Benchmark of the temporalwitness CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify_short --seed 1 --seconds 20 --trace 0

One client runs the workload's commands back to back, in process, through
``temporalwitness.cli.main`` (a closed loop), for ``--seconds`` seconds and at
least one whole pass. Every output is checked against references that do
not come from the package (see ``reference.py``). With ``--trace 0`` the
end-to-end metrics are measured with tracing off; with ``--trace 1`` an
untraced and a traced phase share the time and the per-layer metrics come
from spans recorded around the package's public functions (``spans.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with the environment, is also written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"
# Fresh processes per run for setup_s and cold_cmd_s; medians are reported.
FRESH_SAMPLES = 5
FRESH_TIMEOUT_S = 60
# Warm in-process repetitions of the light command per fresh-process sample;
# the passes alone run it too rarely on the slow workloads.
LIGHT_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A fresh interpreter that imports the CLI, reports when the import is done
# (CLOCK_MONOTONIC is shared by all processes), then runs one command.
FRESH_CHILD = (
    "import sys, time\n"
    "from temporalwitness.cli import main\n"
    "print('perfbench-imported', time.monotonic(), file=sys.stderr, flush=True)\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


class Tally:
    """Latencies and outcomes of every command run.

    The first output of each distinct invocation is checked against the
    references after timing ends; every later run of it must reproduce
    that output byte for byte, because every command is deterministic.
    """

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = defaultdict(list)
        # argv -> [digest, stdout, command, runs reproducing that output]
        self.outputs: dict[tuple, list] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, cmd: workloads.Command, rc, stdout: str, stderr: str) -> None:
        self.attempted += 1
        if rc != 0:
            self._fail(cmd, f"exit {rc}: {stderr.strip()[-300:]}")
            return
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        seen = self.outputs.setdefault(cmd.argv, [digest, stdout, cmd, 0])
        if seen[0] != digest:
            self._fail(cmd, "output differs from its first run")
        else:
            seen[3] += 1

    def check_outputs(self) -> None:
        for _digest, stdout, cmd, runs in self.outputs.values():
            try:
                problems = cmd.check(stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                self.failed += runs
                self.problems += [f"{' '.join(cmd.argv)}: {p}" for p in problems]

    def _fail(self, cmd: workloads.Command, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{' '.join(cmd.argv)}: {problem}")


def run_command(cli, cmd: workloads.Command, tally: Tally) -> float:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(cmd.argv))
    except SystemExit as exc:  # argparse rejected the arguments
        rc = f"SystemExit({exc.code})"
    except Exception as exc:  # one failed command must not end the run
        rc = f"exception {exc!r}"
    elapsed = time.perf_counter() - start
    tally.latencies[cmd.label].append(elapsed)
    tally.record(cmd, rc, out.getvalue(), err.getvalue())
    return elapsed


def run_passes(cli, workload: workloads.Workload, seconds: float, tally: Tally,
               whole_passes: bool, between=None) -> list[float]:
    """Repeat the command list until ``seconds`` have passed, completing at
    least one pass; returns the time of every completed pass, as the sum of
    its command latencies. Unless ``whole_passes``, a pass after the first
    stops at the deadline. ``between()`` runs after every command."""
    deadline = time.perf_counter() + seconds
    walls: list[float] = []
    while not walls or time.perf_counter() < deadline:
        wall = 0.0
        for cmd in workload.commands:
            wall += run_command(cli, cmd, tally)
            if between is not None:
                between()
            if walls and not whole_passes and time.perf_counter() >= deadline:
                return walls
        walls.append(wall)
    return walls


def fresh_process(cmd: workloads.Command, tally: Tally) -> tuple[float, float] | None:
    """Import time and total wall time of the command in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", FRESH_CHILD, *cmd.argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=FRESH_TIMEOUT_S)
    wall = time.monotonic() - start
    tally.record(cmd, proc.returncode, proc.stdout, proc.stderr)
    marks = [ln.split() for ln in proc.stderr.splitlines() if ln.startswith("perfbench-imported")]
    if proc.returncode != 0 or not marks:
        return None
    return float(marks[-1][1]) - start, wall


def tail(samples: list[float]) -> tuple[float, float | None]:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if len(samples) * (1 - pct / 100) >= 10:
            return pct, float(np.percentile(samples, pct))
    return 100.0, None


def command_summary(tally: Tally) -> dict[str, dict]:
    summary = {}
    for label, samples in tally.latencies.items():
        pct, value = tail(samples)
        summary[label] = {"median_s": statistics.median(samples), "n": len(samples),
                          "tail_percentile": pct, "tail_s": value}
    return summary


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARIABLES},
        "load_average": os.getloadavg(),
        "git_sha": None,
        "git_dirty": None,
    }
    with contextlib.suppress(Exception):  # numpy builds without the dict form
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            env["git_sha"] = head.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def timed_run(cli, workload: workloads.Workload, seconds: float, tally: Tally,
              samples: dict) -> dict:
    """End-to-end metrics. The fresh-process samples and the warm repeats of
    the light command are spread over the run, between commands, so that a
    stretch of slow machine time cannot hit all samples of one metric."""
    light = workload.first(workload.light)
    fresh: list[tuple[float, float]] = []
    light_latencies: list[float] = []
    start = time.perf_counter()
    due = [start + seconds * k / FRESH_SAMPLES for k in range(FRESH_SAMPLES)]

    def sample_light() -> None:
        sample = fresh_process(light, tally)
        if sample is not None:
            fresh.append(sample)
        light_latencies.extend(run_command(cli, light, tally) for _ in range(LIGHT_REPEATS))

    def between() -> None:
        while due and time.perf_counter() >= due[0]:
            due.pop(0)
            sample_light()

    walls = run_passes(cli, workload, seconds, tally, whole_passes=False, between=between)
    for _ in range(len(due)):
        sample_light()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not fresh:
        raise RuntimeError("no fresh-process run of the light command succeeded")
    samples.update(pass_s=walls, fresh_import_s=[i for i, _ in fresh],
                   fresh_wall_s=[w for _, w in fresh], light_s=light_latencies)
    return {
        "setup_s": statistics.median(imported for imported, _ in fresh),
        "cold_cmd_s": statistics.median(wall for _, wall in fresh),
        "wall_s": statistics.median(walls),
        "main_cmd_s": statistics.median(tally.latencies[workload.main]),
        "light_cmd_ms": 1e3 * statistics.median(light_latencies),
        "peak_rss_mb": peak_rss_mb,
    }


def traced_run(cli, modules: dict, workload: workloads.Workload, seconds: float,
               tally: Tally, spans_path: Path) -> dict:
    untraced = run_passes(cli, workload, seconds / 2, tally, whole_passes=True)
    recorder = spans.SpanRecorder()
    spans.instrument(recorder, modules)
    try:
        traced = run_passes(cli, workload, seconds / 2, tally, whole_passes=True)
    finally:
        recorder.uninstall()
    recorder.dump(spans_path)
    metrics = spans.layer_metrics(recorder.spans, len(traced))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "temporalwitness" / "cli.py").is_file():
        print(f"error: no temporalwitness sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from temporalwitness import bounds, cli, polytope, protocols, simulator, stats

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {cli.__file__}, not the checkout's sources", file=sys.stderr)
        return 2
    modules = {"cli": cli, "protocols": protocols, "simulator": simulator,
               "polytope": polytope, "bounds": bounds, "stats": stats}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env_before = environment()
    (OUTPUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tally = Tally()
    samples: dict = {}
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUTPUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            metrics = traced_run(cli, modules, workload, args.seconds, tally,
                                 OUTPUT / "results" / f"{stem}-spans.jsonl")
        else:
            metrics = timed_run(cli, workload, args.seconds, tally, samples)
        tally.check_outputs()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(declared)}")
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    }
    commands = command_summary(tally)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "main": workload.main, "light": workload.light,
        "commands": commands, "problems": tally.problems,
        "error_rate": tally.failed / tally.attempted,
        "environment": {"before": env_before, "after": environment()},
        "samples": {**samples, "command_s": tally.latencies},
        **result,
    }
    (OUTPUT / "results" / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(details["environment"]))
    for problem in tally.problems:
        print(f"PROBLEM {problem}")
    print("command latencies (in process, median / tail, n):")
    for label, row in commands.items():
        tail_txt = ("no tail (n < 20)" if row["tail_s"] is None
                    else f"p{row['tail_percentile']:g} {1e3 * row['tail_s']:.3f} ms")
        print(f"  {label:16s} {1e3 * row['median_s']:11.3f} ms  {tail_txt}  n={row['n']}")
    print(f"  {'error_rate':16s} {details['error_rate']:.4g} ({tally.failed}/{tally.attempted})")
    for name, entry in result["metrics"].items():
        print(f"  {name:38s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
