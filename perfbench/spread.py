"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 25 [--workloads a,b] [--out FILE]

Runs ``run.py --trace 0`` once per workload and seed, one run at a time,
with the workloads interleaved, from the repository root.  For each metric
it prints the median of the runs and the spread (q3 - q1) / median, with the
quartiles from ``statistics.quantiles(values, n=4)``.  ``--out`` writes the
summary, with every run's values and output digest, as JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    match = re.search(r"output digest sha256:(\w+)", proc.stdout)
    result["digest"] = match.group(1) if match else None
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: every workload in BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            result = run_once(name, seed, args.seconds)
            runs[name].append(result)
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} {values}",
                  flush=True)
    out = {}
    for name, results in runs.items():
        metrics = {key: summary([r["metrics"][key]["value"] for r in results])
                   for key in results[0]["metrics"]}
        out[name] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
            "output_sha256_by_seed": {str(s): r["digest"]
                                      for s, r in zip(args.seeds, results)},
        }
        for key, m in metrics.items():
            print(f"{name:16s} {key:16s} median {m['median']:10.4g} "
                  f"spread {m['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
