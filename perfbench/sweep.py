"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads ...]
                               [--trace 0] [--out FILE]

For every workload and seed it runs ``run.py`` in a new process, then
prints, per end-to-end metric, the median of the runs, their quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) / median``
next to the metric's bound from ``BENCHMARK.json``. ``--out`` writes the
summary and every run's values as JSON. With one seed it is the one
command that runs all four workloads and prints every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("PROBLEM"):
            print(f"  {line}")
    result = json.loads(proc.stdout.splitlines()[-1])
    details = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["environment"] = json.loads(details.read_text())["environment"]
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    summary: dict = {"seeds": args.seeds, "run_seconds": args.seconds, "trace": args.trace,
                     "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            values = "  ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                               for m in metrics[:8])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}  {values}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"error_rate": failed / attempted, "attempted": attempted,
                 "correct": all(r["correct"] for r in runs),
                 "environment": runs[0]["environment"]["before"],
                 "load_average": [[r["environment"][when]["load_average"][0]
                                   for when in ("before", "after")] for r in runs],
                 "metrics": {}}
        print(f"{workload}: error_rate {entry['error_rate']:g} ({failed}/{attempted})")
        for m in metrics:
            stats = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            entry["metrics"][m["name"]] = {"unit": m["unit"], "bound": m.get("bound"), **stats}
            spread = "-" if stats["spread"] is None else f"{stats['spread']:.3f}"
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {m['name']:42s} median {stats['median']:.6g} {m['unit']}  "
                  f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {spread}{bound}")
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
