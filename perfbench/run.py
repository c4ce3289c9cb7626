"""stablecontracts benchmark: one seeded closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  One
process, no threads, one client in a closed loop.  Workloads and the reason
each exists are in ``workloads.py`` and ``generators.py``.

Set-up runs in three shards (generate markets, write documents, build what
the op needs, then one warm-up op); ``setup_s`` is the median shard time.
The loop runs whole passes over the pool, at least three, until
``--seconds`` have passed.  A fixed host-speed probe (``hostprobe.py``) runs
between ops and around shards, and the metrics use times scaled to a quiet
host; the report also prints the times as measured.
With ``--trace 0`` it then checks every output and prints the end-to-end
metrics.  With ``--trace 1`` it adds exactly one traced pass (so counts
repeat exactly for a seed), checks every output and prints the per-layer
metrics; spans also go to ``perfbench/_work/trace-<workload>-<seed>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostprobe import factor, kernel_time, probe, scaled

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

END_TO_END = [
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Self times are reported only for layers that run on every workload; the
# other layers' self times are printed in the report, since a time that is
# zero by design carries no measurement.
SELF_TIMED = [
    "choice.validate_plott",
    "fileformat.parse_instance",
    "instance.build",
    "instance.reduce_to_two_agents",
    "desirability.desirable_set",
    "stability.is_stable",
]
COUNTED = [
    "choice.validate_plott",
    "fileformat.parse_instance",
    "instance.build",
    "instance.reduce_to_two_agents",
    "desirability.desirable_set",
    "ample.ag_solve",
    "ample.ag_step",
    "modest.yang_solve",
    "stability.is_stable",
    "stability.is_stable_multi",
    "stability.blocking_contracts",
    "choice.dense_table",
    "ample.enumerate_stable_via_ample",
    "oracle.brute_force_stable",
    "classical.gale_shapley",
    "classical.sotomayor_insert_solve",
]
EVALUATE_KEYS = ["aggregate", "firm", "worker", "linear", "quota", "table"]
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in SELF_TIMED]
    + [(f"{layer}.calls", "count") for layer in COUNTED]
    + [("choice.validate_plott.menu_pairs", "count"),
       ("fileformat.bytes_read", "bytes"),
       ("desirability.desirable_set.evals_per_call", "evals/call"),
       ("modest.yang_solve.steps", "count")]
    + [(f"choice.evaluate.calls.{key}", "count") for key in EVALUATE_KEYS]
    + [("trace.overhead_ratio", "ratio")]
)

# The layer expected to have the largest self time in the op, per workload.
PREDICTED_TOP = {
    "cli_solve": "choice.validate_plott",
    "large_solve": "desirability.desirable_set",
    "small_enumerate": "choice.dense_table",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(workload, seed: int, workdir: str, tracer=None):
    """Build the pool shard by shard; return it with each shard's time, as
    measured and scaled to a quiet host (``hostprobe.scaled``).

    A shard's time covers generating its markets, writing their documents,
    building what the op needs and one warm-up op on its first item.
    """
    from workloads import SHARDS

    pool, times, quiet = [], [], []
    probe()  # the first call runs cold
    before = probe()
    for shard in range(SHARDS):
        kernel = kernel_time()
        start = perf_counter()
        if tracer is not None:
            tracer.start_op(f"setup/{shard}")
            tracer.install()
        try:
            items = workload.shard(seed, shard, workdir)
        finally:
            if tracer is not None:
                tracer.remove()
        try:
            workload.op(items[0])
        except Exception:  # the loop runs this item again and reports it
            pass
        times.append(perf_counter() - start)
        kernel = kernel_time() - kernel
        after = probe()
        quiet.append(scaled(times[-1], kernel, before, after))
        before = after
        pool.extend(items)
    return pool, times, quiet


# Whole passes over the pool: at least this many, so the tail holds ops of
# more than one pass.
MIN_PASSES = 3


def run_loop(workload, pool, seconds: float, min_passes: int, tracer=None):
    """Closed loop over the pool in whole passes, at least ``min_passes``,
    until ``seconds`` have passed.  Whole passes give every item the same
    number of ops, spread over the whole run.

    Returns ``(records, quiet, speeds, wall)``; a record is ``(pool index,
    latency, output, error)``.  For each op, ``quiet`` holds its latency
    scaled to a quiet host and ``speeds`` the host's speed against quiet,
    both from the probes just before and just after it.  An op that raises
    is recorded with its error and the loop goes on.
    """
    records, quiet, speeds = [], [], []
    start = perf_counter()
    before = probe()
    while True:
        for index, item in enumerate(pool):
            if tracer is not None:
                tracer.start_op(f"op/{len(records)}")
            kernel = kernel_time()
            t0 = perf_counter()
            try:
                output, error = workload.op(item), None
            except Exception as exc:  # counted in failed_share
                output, error = None, f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            kernel = kernel_time() - kernel
            records.append((index, latency, output, error))
            after = probe()
            quiet.append(scaled(latency, kernel, before, after))
            speeds.append(factor(before, after))
            before = after
        if len(records) >= min_passes * len(pool) and perf_counter() - start >= seconds:
            return records, quiet, speeds, perf_counter() - start


def check_records(workload, pool, records):
    """Check outputs; return ``(failed op count, messages, first outputs)``.

    Each item's first output is checked once; every other op on the item
    must reproduce it exactly.  An op fails when it raised, or its output
    failed the check or differs from the item's first output.
    """
    first, verdict, messages = {}, {}, []
    failed = 0
    for index, _, output, error in records:
        if error is not None:
            failed += 1
            messages.append(f"{pool[index].name}: raised {error}")
            continue
        if index not in first:
            first[index] = output
            try:
                verdict[index] = workload.check(pool[index], output)
            except Exception as exc:  # a check that cannot run is a failure
                verdict[index] = f"check raised {type(exc).__name__}: {exc}"
            if verdict[index] is not None:
                messages.append(f"{pool[index].name}: {verdict[index]}")
        if verdict[index] is not None:
            failed += 1
        elif output != first[index]:
            failed += 1
            messages.append(f"{pool[index].name}: output differs between ops")
    return failed, messages, first


def digest(workload, pool, first) -> str:
    """SHA-256 over each covered item's report, in pool order."""
    h = hashlib.sha256()
    for index in sorted(first):
        h.update(pool[index].name.encode())
        h.update(workload.text(pool[index], first[index]).encode())
    return h.hexdigest()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples beyond)``: the eleventh largest
    latency, or the largest when there are ten or fewer samples.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = 10 if n > 10 else 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def ok_ops(records) -> int:
    return sum(1 for r in records if r[3] is None)


def end_to_end(records, quiet, speeds, wall, shard_times, shard_quiet):
    """The end-to-end metrics from times scaled to a quiet host, the
    report's notes on how they were taken, and a line with the same figures
    as measured."""
    ok = [t for r, t in zip(records, quiet) if r[3] is None] or quiet
    tail_value, tail_pct, beyond = tail(ok)
    metrics = {
        "ops_per_s": ok_ops(records) / sum(ok),
        "latency_p50_ms": 1000.0 * statistics.median(ok),
        "latency_tail_ms": 1000.0 * tail_value,
        "setup_s": statistics.median(shard_quiet),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "ops_per_s": f"{ok_ops(records)} ops over the sum of their times",
        "latency_p50_ms": f"median of {len(ok)} ops",
        "latency_tail_ms": f"p{tail_pct:.2f} of {len(ok)} ops, {beyond} beyond",
        "setup_s": f"median of {len(shard_times)} shards",
    }
    raw = [r[1] for r in records]
    raw_tail = tail(raw)[0]
    measured = (
        f"# as measured: {ok_ops(records) / wall:.6g} ops/s of wall time, "
        f"p50 {1000.0 * statistics.median(raw):.6g} ms, "
        f"p{tail_pct:.2f} {1000.0 * raw_tail:.6g} ms, "
        f"set-up shard median {statistics.median(shard_times):.6g} s; "
        f"host ran at {statistics.median(speeds):.3g} of quiet speed"
    )
    return metrics, notes, measured


def per_layer(tracer, untraced_rate: float, traced_rate: float):
    """Per-layer metrics over the traced set-up and the traced pass, plus
    the ops-only breakdown the report prints."""
    from tracing import LAYERS

    totals = tracer.layer_totals()
    ops = tracer.layer_totals(lambda op: op.startswith("op/"))
    counts = tracer.counts
    metrics = {}
    for layer in SELF_TIMED:
        metrics[f"{layer}.self_s"] = totals[layer]["self_s"]
    for layer in COUNTED:
        metrics[f"{layer}.calls"] = totals[layer]["calls"]
    ds_calls = totals["desirability.desirable_set"]["calls"]
    metrics["choice.validate_plott.menu_pairs"] = counts["choice.validate_plott.menu_pairs"]
    metrics["fileformat.bytes_read"] = counts["fileformat.bytes_read"]
    metrics["desirability.desirable_set.evals_per_call"] = (
        counts["desirable_set.evals"] / ds_calls if ds_calls else 0.0
    )
    metrics["modest.yang_solve.steps"] = counts["modest.yang_solve.steps"]
    for key in EVALUATE_KEYS:
        metrics[f"choice.evaluate.calls.{key}"] = counts[key]
    metrics["trace.overhead_ratio"] = untraced_rate / traced_rate
    rows = [(layer, totals[layer], ops[layer]) for layer in LAYERS]
    return metrics, rows


def report_layers(name: str, rows) -> None:
    print("# layer                              calls   self_s  (ops only: calls  self_s)")
    for layer, total, ops in sorted(rows, key=lambda r: -r[1]["self_s"]):
        print(f"{layer:36s} {total['calls']:7d} {total['self_s']:8.4f}"
              f"  ({ops['calls']:7d} {ops['self_s']:8.4f})")
    top = max(rows, key=lambda r: r[2]["self_s"])[0]
    predicted = PREDICTED_TOP[name]
    verdict = "held" if top == predicted else "MISSED"
    print(f"largest self time in the op: {top} "
          f"(predicted {predicted}: prediction {verdict})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stablecontracts" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    from tracing import Tracer, installed_wrappers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"# workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {workload.why}")
    print(f"# nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, OMP_NUM_THREADS=1, OPENBLAS_NUM_THREADS=1")

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer() if args.trace else None
    try:
        pool, shard_times, shard_quiet = setup(
            workload, args.seed, str(workdir), tracer)
        records, quiet, speeds, wall = run_loop(
            workload, pool, args.seconds, MIN_PASSES)
        if args.trace:
            tracer.install()
            try:
                traced, traced_quiet, _, traced_wall = run_loop(
                    workload, pool, 0.0, 1, tracer)
            finally:
                tracer.remove()
            left = installed_wrappers()
            if left:
                print(f"error: tracing wrappers left installed: {left}",
                      file=sys.stderr)
                return 3
            tracer.write(str(WORK / f"trace-{workload.name}-{args.seed}.jsonl"))
        else:
            metrics, notes, measured = end_to_end(
                records, quiet, speeds, wall, shard_times, shard_quiet)
        all_records = records + (traced if args.trace else [])
        failed, messages, first = check_records(workload, pool, all_records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(all_records)
    print(f"# pool {len(pool)} items; {len(records)} ops in {wall:.3f} s"
          + (f"; traced pass {len(traced)} ops in {traced_wall:.3f} s"
             if args.trace else ""))
    if args.trace:
        metrics, rows = per_layer(
            tracer, len(records) / sum(quiet), len(traced) / sum(traced_quiet)
        )
        report_layers(workload.name, rows)
        units, notes = PER_LAYER, {}
    else:
        units = END_TO_END
        print(measured)
    for name, unit in units:
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:44s} {metrics[name]:.6g} {unit}{extra}")
    print(f"{'failed_share':44s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")
    print(f"# output digest sha256:{digest(workload, pool, first)} "
          f"over {len(first)} of {len(pool)} items")
    for message in messages[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
