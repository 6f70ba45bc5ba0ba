"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from regcycle import canonical_permutation, cycle_types  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_value, self_times, summarize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seconds: str = "0.5", cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def _result(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    detail, result = _result(_run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["fail_frac"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


# One layer each traced run must reach even in half a second.
_REACHED = {
    "corpus": "regular.decide_bruteforce.calls",
    "witness": "regular.partition_witness.calls",
    "bounds": "bounds.alpha_beta.calls",
    "cli": "cli.decide_ms",
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    detail, result = _result(_run(workload, 1))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"][_REACHED[workload]]["value"] > 0
    assert (ROOT / detail["trace_file"]).is_file()


def test_self_time_on_hand_built_span_tree():
    spans = [
        Span("root", 0, 100, None, 0),
        Span("a", 10, 40, 0, 0),
        Span("a.inner", 15, 20, 1, 0),
        Span("b", 30, 60, 0, 0),  # overlaps a: the union is subtracted once
        Span("c", 90, 120, 0, 0),  # runs past root: clipped to root's end
    ]
    assert self_times(spans) == [100 - 50 - 10, 30 - 5, 5, 30, 30]
    stats = summarize(spans)
    assert stats["a"].self_ns == 25 and stats["root"].total_ns == 100
    assert layer_value("root.self_s", stats, {}) == 40 / 1e9
    assert layer_value("missing.calls", stats, {}) == 0


def test_layer_value_reads_counters_and_named_medians():
    tracer = Tracer()
    for _ in range(3):
        with tracer.span("cli.decide"):
            pass
    tracer.add("regular.certified_steps", 7)
    stats = summarize(tracer.spans)
    assert layer_value("cli.decide.calls", stats, tracer.counts) == 3
    assert layer_value("cli.decide_ms", stats, tracer.counts) == stats["cli.decide"].median_ns / 1e6
    assert layer_value("regular.certified_steps", stats, tracer.counts) == 7


def test_wrong_decider_result_counts_as_failure(monkeypatch):
    corpus = workloads.Corpus(seed=1)
    real = workloads.decide_fix_union

    def wrong(action, g):
        verdict = real(action, g)
        return dataclasses.replace(verdict, has_regular_cycle=not verdict.has_regular_cycle)

    monkeypatch.setattr(workloads, "decide_fix_union", wrong)
    phase = run.measure(corpus, 0.2)
    assert phase.attempted > 0
    assert len(phase.failures) == phase.attempted
    assert "has_regular_cycle" in phase.failures[0]["error"]


def test_wrong_witness_counts_as_failure():
    witness = workloads.Witness(seed=1)
    item = ("partition", (3, 2), workloads.Permutation.from_cycles([(1, 2, 3), (4, 5, 6)], 6))
    assert witness.check(item, witness.run(item)) is None
    assert "fixed by" in witness.check(item, ((1, 2, 3), (4, 5, 6)))
    assert "not an" in witness.check(item, ((1, 2, 3), (3, 4, 5)))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("bounds", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_batched_span_reports_the_median_call():
    spans = [Span("op", 0, 1000, None, 0, 100), Span("op", 0, 3000, None, 10, 100), Span("op", 0, 500, None, 20, 100)]
    stats = summarize(spans)
    assert stats["op"].median_ns == 10 and stats["op"].total_ns == 4500
    assert layer_value("op.us", stats, {}) == 10 / 1e3


def _orbit_is_regular(g, subset) -> bool:
    order, h, current = g.order(), g.images, frozenset(subset)
    image = current
    for step in range(1, order + 1):
        image = frozenset(h[v] for v in image)
        if image == current:
            return step == order
    raise AssertionError("unreachable")


def test_kset_rule_matches_brute_force():
    for m in range(2, 9):
        for ct in cycle_types(m):
            g = canonical_permutation(ct)
            lengths = [len(c) for c in g.cycles(include_fixed=True)]
            for k in range(0, m + 1):
                brute = any(_orbit_is_regular(g, s) for s in itertools.combinations(range(m), k))
                assert workloads.kset_has_regular_orbit(lengths, k) == brute, (ct.parts, k)


def test_wrong_kset_verdict_counts_as_failure():
    witness = workloads.Witness(seed=1)
    item = next(i for i in witness.items if i[0] == "kset")
    verdict = witness.run(item)
    assert witness.check(item, verdict) is None
    flipped = dataclasses.replace(verdict, has_regular_cycle=not verdict.has_regular_cycle, witness=None)
    assert "expected" in witness.check(item, flipped)


def test_interleave_keeps_every_prefix_in_proportion():
    rng = workloads.random.Random(3)
    merged = workloads.interleave([["a"] * 900, ["b"] * 100], rng)
    for n in (50, 200, 1000):
        assert abs(merged[:n].count("b") - n / 10) <= 1


def test_spread_order_is_a_permutation():
    rng = workloads.random.Random(5)
    for length in (1, 2, 11, 100, 198):
        assert sorted(workloads.spread_order(length, rng)) == list(range(length))
