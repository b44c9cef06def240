"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
from readme_cli import run_readme
from tracing import Span, Tracer, self_times, totals_by_name
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(run.__file__).resolve().parent
ROOT = BENCH_DIR.parent
RECORDED = json.loads((BENCH_DIR / "fingerprints.json").read_text(encoding="utf-8"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span("parent", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("b", 2.0, 5.0, 0, 1),  # overlaps a: the union [1, 5] counts once
        Span("c", 8.0, 12.0, 0, 1),  # clipped to the parent's end
        Span("grandchild", 1.5, 2.5, 1, 1),  # only subtracted from its own parent
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_totals_count_recursive_inclusive_time_once():
    spans = [
        Span("build", 0.0, 4.0, -1, "setup"),
        Span("build", 1.0, 3.0, 0, "setup"),
        Span("rank", 5.0, 6.0, -1, 7),
    ]
    totals = totals_by_name(spans)
    assert totals["build"].calls == 2
    assert totals["build"].inclusive_s == pytest.approx(4.0)
    assert totals["build"].self_s == pytest.approx(4.0)
    only_run = totals_by_name(spans, lambda s: s.item != "setup")
    assert set(only_run) == {"rank"}


def test_tail_latency_takes_highest_percentile_with_ten_beyond():
    samples = [float(v) for v in range(1, 101)]
    assert run.tail_latency(samples, 99.9) == (90.0, 90.0, 10)
    assert run.tail_latency(samples, 75.0) == (75.0, 75.0, 25)
    assert run.tail_latency([float(v) for v in range(1, 1001)], 99.9) == (99.0, 990.0, 10)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fingerprint_slice_matches_recorded_digest(name):
    digest, res = run.fingerprint(WORKLOADS[name], DEFAULT_SEED)
    assert res.failed == 0, res.errors
    assert res.attempted == WORKLOADS[name].slice_items
    assert digest == RECORDED["workloads"][name]


def test_readme_commands_match_recorded_digests(tmp_path):
    digests, failures, _ = run_readme(tmp_path)
    assert failures == []
    assert digests == RECORDED["cli"]


def test_tracer_wraps_the_name_each_caller_looks_up_and_restores_it():
    from streamfec import block_code, matrix, search, streaming

    def looked_up():
        return (streaming.decode_errors, search.verify_delay_decodable, block_code.verify_delay_decodable, matrix.rank)

    originals = looked_up()
    wl = WORKLOADS["error-sweep"]
    tracer = Tracer()
    run.install_tracer(tracer)
    try:
        res = run.run_pass(wl, wl.setup(DEFAULT_SEED, tracer.span), max_rounds=1, tracer=tracer)
    finally:
        tracer.restore()
    assert res.failed == 0
    assert looked_up() == originals
    spans = tracer.spans
    names = Counter(s.name for s in spans)
    assert names["item"] == names["streaming.simulate"] == len(wl._ROUND)
    # simulate calls decode_errors through streaming's globals
    for s in spans:
        if s.name == "streaming.decode_errors":
            assert spans[s.parent].name == "streaming.simulate"


def test_metric_names_match_benchmark_json():
    per_layer = run.layer_metrics(Tracer().spans, Counter(), Counter(), 0, 0.0, 0.0)
    assert list(per_layer) == [m["name"] for m in SPEC["per_layer"]]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: v["unit"] for k, v in per_layer.items()}


def _bench(cwd, *extra):
    cmd = [sys.executable, *extra, "perfbench/run.py", "--workload", "code-search", "--seed", "1", "--seconds", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_refuses_to_run_optimized():
    proc = _bench(ROOT, "-O")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
