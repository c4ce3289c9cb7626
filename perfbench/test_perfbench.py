"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import stablecontracts as sc  # noqa: E402
import generators as g  # noqa: E402
import hostprobe  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402
from tracing import SPANS, Tracer, installed_wrappers  # noqa: E402


def _docs(items):
    return [json.dumps(item.doc, sort_keys=True) for item in items]


def _cheap_pool(tmp_path):
    """A few fast items of each workload, for tracing and check tests."""
    cli = [i for i in w.cli_solve_shard(3, 0, str(tmp_path)) if i.market.size < 60]
    small = [i for i in w.small_enumerate_shard(3, 0, str(tmp_path))
             if i.market.size <= 13]
    market = g.regular_market(random.Random(3), 6, 4, 0.0)
    large = w.Item("n24", market, g.document(market), "",
                   sc.instance_from_document(g.document(market)))
    return [(w.WORKLOADS["cli_solve"], cli), (w.WORKLOADS["small_enumerate"], small),
            (w.WORKLOADS["large_solve"], [large])]


def test_generators_are_deterministic_per_seed(tmp_path):
    for shard in (w.cli_solve_shard, w.small_enumerate_shard):
        first = _docs(shard(7, 1, str(tmp_path)))
        assert first == _docs(shard(7, 1, str(tmp_path)))
        assert first != _docs(shard(8, 1, str(tmp_path)))
    docs = [g.document(g.regular_market(random.Random(s), 20, 8, 0.75))
            for s in (5, 5, 6)]
    assert docs[0] == docs[1] != docs[2]


def test_generated_markets_have_the_promised_shape(tmp_path):
    for item in w.cli_solve_shard(1, 0, str(tmp_path)):
        inst = item.reference_instance()
        degrees = [sc.contracts_of(inst, a.id).bit_count() for a in inst.agents]
        assert 45 <= inst.size <= 155 and min(degrees) >= 6 and max(degrees) <= 11
    small = w.small_enumerate_shard(1, 0, str(tmp_path))
    counts = [len(sc.brute_force_stable(sc.reduce_to_two_agents(i.reference_instance())))
              for i in small]
    assert all(12 <= i.market.size <= 16 for i in small)
    assert sum(c > 1 for c in counts) * 2 >= len(counts)
    market = g.regular_market(random.Random(1), 38, 8, 0.0)
    assert market.size == 304 and market.linear_only()


def _traced_counts(pool):
    tracer = Tracer()
    tracer.install()
    try:
        for workload, items in pool:
            for item in items:
                tracer.start_op(item.name)
                workload.op(item)
    finally:
        tracer.remove()
    calls = {k: v["calls"] for k, v in tracer.layer_totals().items()}
    return dict(tracer.counts), calls


def test_two_traced_runs_give_identical_counts(tmp_path):
    pool = _cheap_pool(tmp_path)
    counts, calls = _traced_counts(pool)
    assert (counts, calls) == _traced_counts(pool)
    for layer in ("choice.validate_plott", "desirability.desirable_set",
                  "choice.dense_table", "ample.ag_solve", "modest.yang_solve",
                  "classical.gale_shapley", "instance.build"):
        assert calls[layer] > 0, layer
    assert counts["firm"] > 0 and counts["worker"] > 0 and counts["table"] > 0


def test_wrappers_are_fully_removed_after_tracing():
    originals = {(home, attr): getattr(sys.modules[f"stablecontracts.{home}"], attr)
                 for home, attr in SPANS.values()}
    evaluate = sc.ChoiceFunction.evaluate
    tracer = Tracer()
    tracer.install()
    try:
        assert "stablecontracts.ample.desirable_set" in installed_wrappers()
        assert "ChoiceFunction.evaluate" in installed_wrappers()
    finally:
        tracer.remove()
    assert installed_wrappers() == []
    assert sc.ChoiceFunction.evaluate is evaluate
    for (home, attr), original in originals.items():
        assert getattr(sys.modules[f"stablecontracts.{home}"], attr) is original


def test_corrupted_reports_are_caught_and_counted(tmp_path):
    for workload, items in _cheap_pool(tmp_path):
        item = items[0]
        good = workload.op(item)
        assert workload.check(item, good) is None
        if workload.name == "cli_solve":
            code, text = good
            bad = (code, "S = {}\n" + text.split("\n", 1)[1])
        elif workload.name == "small_enumerate":
            bad = [(good[0][0], good[0][1].replace("count = ", "count = 9", 1))] + good[1:]
        else:
            bad = (good[0] ^ 1,) + good[1:]
        records = [(0, 0.1, good, None), (0, 0.1, bad, None), (0, 0.1, None, "boom")]
        failed, messages, _ = run.check_records(workload, [item], records)
        assert failed == 2, (workload.name, messages)
        records = [(0, 0.1, bad, None), (0, 0.1, good, None)]
        assert run.check_records(workload, [item], records)[0] == 2


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


def test_end_to_end_metrics_use_scaled_times():
    records = [(0, 0.3, "a", None), (1, 0.1, "b", None), (0, 0.2, "a", None),
               (1, 0.05, None, "boom")]
    quiet = [0.3, 0.1, 0.1, 0.05]
    metrics, notes, measured = run.end_to_end(
        records, quiet, [1.0, 1.0, 0.5, 1.0], 1.0, [0.5, 0.1, 0.3], [0.5, 0.05, 0.6])
    assert metrics["ops_per_s"] == pytest.approx(3 / 0.5)
    assert metrics["latency_p50_ms"] == pytest.approx(100.0)
    assert metrics["latency_tail_ms"] == pytest.approx(300.0)
    assert metrics["setup_s"] == pytest.approx(0.5)
    assert notes["latency_tail_ms"] == "p100.00 of 3 ops, 0 beyond"
    assert "3 ops/s of wall time" in measured


def test_host_scale_undoes_a_slow_host_in_user_mode_only():
    q = hostprobe.QUIET_S
    assert hostprobe.factor(q, q) == 1.0
    assert hostprobe.factor(2 * q, 2 * q) == 0.5
    assert hostprobe.scaled(0.3, 0.1, 2 * q, 2 * q) == pytest.approx(0.2)
    assert hostprobe.probe() > 0 and hostprobe.kernel_time() >= 0


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
