#!/usr/bin/env python3
"""The streamfec benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload error-sweep --seed 1 --seconds 20 --trace 0

One client issues items back to back in a single process (jobs=1, no
extra threads).  Every run first runs the README's CLI commands and a
fixed fingerprint slice of the workload, outside the timed loop, and
checks every output for exactness.

--trace 0 times the workload for --seconds and prints the end-to-end
metrics.  --trace 1 runs a fixed number of rounds three times: untraced,
with spans around the calls into each layer, and with Field.mul and
Field.inv counted; it prints the per-layer metrics.  End-to-end numbers
never come from a traced pass.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds provenance and
details.  The exit code is 0 only when every output was exact.
"""

from __future__ import annotations

import argparse
from array import array
from bisect import bisect_left, bisect_right
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
SETUP_REPEATS = 31
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The speed of a shared machine changes from one second to the next with
# its neighbours' load, by up to half.  The calibration kernel is timed
# between items every CALIBRATION_EVERY_S, and each measurement is scaled
# by the median kernel time within CALIBRATION_WINDOW_S of it.
CALIBRATION_EVERY_S = 0.1
CALIBRATION_WINDOW_S = 1.0
CALIBRATION_NEAREST = 5
# calibration_kernel's time on an idle 2-core x86-64 machine under CPython 3.11
REFERENCE_CALIBRATION_S = 0.003


def _null_span(_name):
    return nullcontext()


def calibration_kernel(iterations: int = 20_000) -> int:
    """Fixed interpreter work that shares no code with the program; timed
    between items, it tracks how fast the machine runs at that moment."""
    acc = 0
    table = {}
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return acc


class PassResult:
    """What one pass over a workload's items produced.  Times are
    perf_counter readings, so samples can be paired with the calibration
    measured around them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []
        self.samples = array("d")  # latency samples, seconds
        self.sample_at = array("d")
        # per completed item: its rate part (0 for a, 1 for b), units and call interval
        self.item_part = array("b")
        self.item_units = array("q")
        self.item_t0 = array("d")
        self.item_t1 = array("d")
        self.busy = 0.0  # seconds spent inside item calls
        self.rounds = 0
        self.calibration = array("d")  # calibration_kernel times, seconds
        self.calibration_at = array("d")


def _calibrate(res: PassResult) -> None:
    t0 = perf_counter()
    calibration_kernel()
    t1 = perf_counter()
    res.calibration.append(t1 - t0)
    res.calibration_at.append((t0 + t1) / 2)


def run_pass(
    wl,
    state,
    *,
    seconds=None,
    max_rounds=None,
    max_items=None,
    tracer=None,
    counter=None,
    calibrate=False,
    keep_digests=False,
) -> PassResult:
    """Run rounds of items until `seconds` have passed (checked between
    rounds), `max_rounds` rounds ran, or `max_items` items ran.  With
    `calibrate`, time the calibration kernel between items every
    CALIBRATION_EVERY_S seconds."""
    res = PassResult()
    span = tracer.span if tracer is not None else _null_span
    rounds = wl.rounds(state)
    start = perf_counter()
    if calibrate:
        _calibrate(res)
    while True:
        if tracer is not None:
            tracer.item, tracer.active = "prepare", True
        items = next(rounds)
        if tracer is not None:
            tracer.active = False
        for item in items:
            if max_items is not None and res.attempted >= max_items:
                break
            if calibrate:
                # after a long call, several samples, so the call's own
                # interval has more than one neighbour to be scaled by
                for _ in range(min(5, int((perf_counter() - res.calibration_at[-1]) / CALIBRATION_EVERY_S))):
                    _calibrate(res)
            res.attempted += 1
            if tracer is not None:
                tracer.item, tracer.active = res.attempted, True
            if counter is not None:
                counter.active = True
            try:
                try:
                    with span("item"):
                        t0 = perf_counter()
                        out = item.run()
                        t1 = perf_counter()
                finally:
                    if tracer is not None:
                        tracer.active = False
                    if counter is not None:
                        counter.active = False
                text = item.check(out)
            except Exception as exc:  # a raising or inexact item is a failed item; the run goes on
                res.failed += 1
                if len(res.errors) < 5:
                    res.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            if keep_digests:
                res.digests.append(hashlib.sha256(text.encode()).hexdigest())
            if item.latency == "call":
                res.samples.append(t1 - t0)
                res.sample_at.append((t0 + t1) / 2)
            elif item.latency == "progress":
                prev = t0
                for tick in item.ticks:
                    res.samples.append(tick - prev)
                    res.sample_at.append((prev + tick) / 2)
                    prev = tick
            res.item_part.append(item.part == "b")
            res.item_units.append(item.units)
            res.item_t0.append(t0)
            res.item_t1.append(t1)
            res.busy += t1 - t0
        res.rounds += 1
        if max_rounds is not None and res.rounds >= max_rounds:
            break
        if max_items is not None and res.attempted >= max_items:
            break
        if seconds is not None and perf_counter() - start >= seconds:
            break
    if calibrate:
        _calibrate(res)
    return res


class MachineSpeed:
    """How much slower than the reference the machine ran over an
    interval: the median calibration time within CALIBRATION_WINDOW_S / 2
    of the interval, widened to the CALIBRATION_NEAREST nearest samples
    where they are sparse (around long calls), over
    REFERENCE_CALIBRATION_S."""

    def __init__(self, res: PassResult) -> None:
        self.times = res.calibration_at
        self.values = res.calibration
        self._memo: dict[tuple[int, int], float] = {}

    def __call__(self, t0: float, t1: float) -> float:
        times = self.times
        lo = bisect_left(times, t0 - CALIBRATION_WINDOW_S / 2)
        hi = bisect_right(times, t1 + CALIBRATION_WINDOW_S / 2)
        while hi - lo < min(CALIBRATION_NEAREST, len(times)):
            if hi == len(times) or (lo > 0 and t0 - times[lo - 1] <= times[hi] - t1):
                lo -= 1
            else:
                hi += 1
        speed = self._memo.get((lo, hi))
        if speed is None:
            speed = statistics.median(self.values[lo:hi]) / REFERENCE_CALIBRATION_S
            self._memo[(lo, hi)] = speed
        return speed


def part_rates(res: PassResult, speed: MachineSpeed | None = None) -> dict[str, float]:
    """Units per second of call time over the pass, for part a, part b
    and both; with `speed`, each call's time is first scaled to the
    reference machine speed."""
    units = [0, 0]
    busy = [0.0, 0.0]
    for part, n, t0, t1 in zip(res.item_part, res.item_units, res.item_t0, res.item_t1):
        units[part] += n
        busy[part] += (t1 - t0) / speed(t0, t1) if speed is not None else t1 - t0
    rate = [n / dt if dt else 0.0 for n, dt in zip(units, busy)]
    return {"a": rate[0], "b": rate[1], "all": sum(units) / sum(busy) if sum(busy) else 0.0}


def reference_busy(res: PassResult) -> float:
    """Call time of a calibrated pass at the reference machine speed."""
    speed = MachineSpeed(res)
    return sum((t1 - t0) / speed(t0, t1) for t0, t1 in zip(res.item_t0, res.item_t1))


def tail_latency(samples: list[float], preferred: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile
    up to `preferred` with at least ten samples beyond it, nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        rank = max(1, math.ceil(p / 100 * n))
        if p <= preferred and n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    rank = max(1, math.ceil(n / 2))
    return 50.0, ordered[rank - 1], n - rank


def fingerprint(wl, default_seed: int) -> tuple[str, PassResult]:
    """Digest of the outputs of the workload's fixed slice: its first
    `slice_items` items at the default seed."""
    state = wl.setup(default_seed, _null_span)
    res = run_pass(wl, state, max_items=wl.slice_items, keep_digests=True)
    return hashlib.sha256("\n".join(res.digests).encode()).hexdigest(), res


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(args) -> dict:
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def install_tracer(tracer) -> None:
    """Span sites: every name under which a caller looks up a public
    function of a layer."""
    from streamfec import block_code, channel, matrix, search, streaming

    def n_patterns(args, _result):
        return len(args[2])

    def n_messages(args, _result):
        return args[3]

    def n_candidates(_args, result):
        return result["candidates_checked"]

    for owner, attr, name, work in (
        (matrix, "rank", "matrix.rank", None),
        (block_code, "rank", "matrix.rank", None),
        (block_code, "in_span", "matrix.in_span", None),
        (block_code, "punctured_parity", "matrix.punctured_parity", None),
        (block_code, "verify_delay_decodable", "block_code.verify", n_patterns),
        (search, "verify_delay_decodable", "block_code.verify", n_patterns),
        (block_code, "build_mds", "block_code.build", None),
        (block_code, "build_multi_burst", "block_code.build", None),
        (channel, "is_admissible_sw", "channel.admits_sw", None),
        (channel, "is_admissible_mbsw", "channel.admits_mbsw", None),
        (channel, "burst_supports", "channel.burst_supports", None),
        (search, "burst_supports", "channel.burst_supports", None),
        (streaming, "de_encode", "streaming.de_encode", None),
        (streaming, "apply_errors", "streaming.apply", None),
        (streaming, "apply_erasures", "streaming.apply", None),
        (streaming, "decode_errors", "streaming.decode_errors", n_messages),
        (streaming, "decode_erasures", "streaming.decode_erasures", n_messages),
        (streaming, "simulate", "streaming.simulate", None),
        (search, "search_nonexistence", "search.search", n_candidates),
        (search, "brute_force_decodable", "search.brute_force", None),
        (search, "enumerate_codebook", "search.enumerate_codebook", None),
    ):
        tracer.patch(owner, attr, name, work)


def layer_metrics(spans, work, counts, counted_items, cli_s, overhead) -> dict:
    """The per-layer metrics, from the traced pass (spans, work), the
    counting pass (counts per item) and the CLI run."""
    from tracing import Totals, totals_by_name

    run = totals_by_name(spans, lambda s: s.item != "setup")
    setup = totals_by_name(spans, lambda s: s.item == "setup")
    zero = Totals(0, 0.0, 0.0)

    def r(name):
        return run.get(name, zero)

    def per(numer, denom, scale=1.0):
        return numer / denom * scale if denom else 0.0

    item_s = r("item").inclusive_s
    admits_self = r("channel.admits_sw").self_s + r("channel.admits_mbsw").self_s
    values = {
        "galois.mul_calls": (per(counts["galois.mul"], counted_items), "count/item"),
        "galois.inv_calls": (per(counts["galois.inv"], counted_items), "count/item"),
        "galois.field_build_s": (setup.get("galois.field_build", zero).inclusive_s, "s"),
        "matrix.rank_calls": (r("matrix.rank").calls, "count"),
        "matrix.rank_self_s": (r("matrix.rank").self_s, "s"),
        "matrix.in_span_calls": (r("matrix.in_span").calls, "count"),
        "matrix.in_span_self_s": (r("matrix.in_span").self_s, "s"),
        "matrix.punctured_parity_calls": (r("matrix.punctured_parity").calls, "count"),
        "matrix.punctured_parity_self_s": (r("matrix.punctured_parity").self_s, "s"),
        "block_code.verify_calls": (r("block_code.verify").calls, "count"),
        "block_code.verify_self_s": (r("block_code.verify").self_s, "s"),
        "block_code.verify_us_per_pattern": (
            per(r("block_code.verify").inclusive_s, work["block_code.verify"], 1e6),
            "us",
        ),
        "block_code.build_s": (setup.get("block_code.build", zero).inclusive_s, "s"),
        "channel.admits_calls": (r("channel.admits_sw").calls + r("channel.admits_mbsw").calls, "count"),
        "channel.admits_sw_self_s": (r("channel.admits_sw").self_s, "s"),
        "channel.admits_mbsw_self_s": (r("channel.admits_mbsw").self_s, "s"),
        "channel.admits_share": (per(admits_self, item_s), "ratio"),
        "channel.enumerate_admissible_s": (setup.get("channel.enumerate_admissible", zero).inclusive_s, "s"),
        "channel.burst_supports_s": (setup.get("channel.burst_supports", zero).inclusive_s, "s"),
        "streaming.decode_errors_self_s": (r("streaming.decode_errors").self_s, "s"),
        "streaming.decode_errors_ms_per_message": (
            per(r("streaming.decode_errors").inclusive_s, work["streaming.decode_errors"], 1e3),
            "ms",
        ),
        "streaming.decode_erasures_self_s": (r("streaming.decode_erasures").self_s, "s"),
        "streaming.decode_erasures_us_per_message": (
            per(r("streaming.decode_erasures").inclusive_s, work["streaming.decode_erasures"], 1e6),
            "us",
        ),
        "streaming.de_encode_calls": (r("streaming.de_encode").calls, "count"),
        "streaming.de_encode_self_s": (r("streaming.de_encode").self_s, "s"),
        "streaming.de_encode_share": (per(r("streaming.de_encode").self_s, item_s), "ratio"),
        "streaming.apply_self_s": (r("streaming.apply").self_s, "s"),
        "streaming.simulate_self_s": (r("streaming.simulate").self_s, "s"),
        "search.scan_self_s": (r("search.search").self_s, "s"),
        "search.candidates_checked": (work["search.search"], "count"),
        "search.brute_force_calls": (r("search.brute_force").calls, "count"),
        "search.brute_force_self_s": (r("search.brute_force").self_s, "s"),
        "search.enumerate_codebook_s": (r("search.enumerate_codebook").inclusive_s, "s"),
        "cli.readme_s": (cli_s, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def traced_run(wl, seed: int, cli_s: float) -> tuple[dict, list[PassResult], dict]:
    """Untraced, traced and counting passes over the same fixed rounds;
    returns the per-layer metrics, the passes and details."""
    from streamfec import galois
    from tracing import CallCounter, Tracer, totals_by_name

    plain = run_pass(wl, wl.setup(seed, _null_span), max_rounds=wl.trace_rounds, calibrate=True)

    tracer = Tracer()
    install_tracer(tracer)
    try:
        tracer.item, tracer.active = "setup", True
        state = wl.setup(seed, tracer.span)
        tracer.active = False
        traced = run_pass(wl, state, max_rounds=wl.trace_rounds, tracer=tracer, calibrate=True)
    finally:
        tracer.restore()
    spans_file = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.dump(spans_file)

    counter = CallCounter()
    counter.patch(galois.Field, "mul", "galois.mul")
    counter.patch(galois.Field, "inv", "galois.inv")
    try:
        counted = run_pass(wl, wl.setup(seed, _null_span), max_rounds=wl.trace_rounds, counter=counter)
    finally:
        counter.restore()

    spans = tracer.spans
    overhead = reference_busy(traced) / reference_busy(plain)
    run_totals = totals_by_name(spans, lambda s: s.item not in ("setup", "prepare") and s.name != "item")
    ranking = sorted(((t.self_s, name) for name, t in run_totals.items()), reverse=True)
    metrics = layer_metrics(spans, tracer.work, counter.counts, counted.attempted, cli_s, overhead)
    extra = {
        "traced_items": traced.attempted,
        "largest_self_s": [[name, round(v, 6)] for v, name in ranking[:6]],
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, [plain, traced, counted], extra


def timed_run(wl, seed: int, seconds: int) -> tuple[dict, PassResult, dict]:
    """Set up SETUP_REPEATS times, then run the workload for `seconds`.

    The metrics are the timings at the reference machine speed: each call
    and each set-up is scaled by MachineSpeed over its interval.  On a
    shared machine this cancels most of the drift that neighbours cause.
    The raw figures go to the details line."""
    setup = PassResult()
    _calibrate(setup)
    setup_at = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        state = wl.setup(seed, _null_span)
        t1 = perf_counter()
        _calibrate(setup)
        setup_at.append((t0, t1))
    setup_speed = MachineSpeed(setup)
    res = run_pass(wl, state, seconds=seconds, calibrate=True)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed = MachineSpeed(res)

    raw_rates = part_rates(res)
    ref_rates = part_rates(res, speed)
    latency_ref = [v / speed(t, t) for v, t in zip(res.samples, res.sample_at)]
    pct, tail, beyond = tail_latency(res.samples, wl.tail_percentile)
    _, tail_ref, _ = tail_latency(latency_ref, wl.tail_percentile)
    metrics = {
        "rate_a_ref_per_s": (ref_rates["a"], "1/s"),
        "rate_b_ref_per_s": (ref_rates["b"], "1/s"),
        "latency_p50_ref_ms": (statistics.median(latency_ref) * 1e3, "ms"),
        "latency_tail_ref_ms": (tail_ref * 1e3, "ms"),
        "setup_s": (statistics.median((t1 - t0) / setup_speed(t0, t1) for t0, t1 in setup_at), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    raw = {
        "rate_a_per_s": (raw_rates["a"], "1/s"),
        "rate_b_per_s": (raw_rates["b"], "1/s"),
        "latency_p50_ms": (statistics.median(res.samples) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(t1 - t0 for t0, t1 in setup_at), "s"),
    }
    # the raw rates under the workload's own names too
    if wl.name == "code-search":
        raw["gf2_candidates_per_s"] = raw["rate_a_per_s"]
        raw["gfq_candidates_per_s"] = raw["rate_b_per_s"]
    else:
        raw[f"{wl.unit}_per_s"] = (raw_rates["all"], "1/s")
    details = {
        "parts": wl.parts,
        "raw": {name: {"value": v, "unit": u} for name, (v, u) in raw.items()},
        "calibration_ms": statistics.median(res.calibration) * 1e3,
        "reference_calibration_ms": REFERENCE_CALIBRATION_S * 1e3,
        "latency_tail_percentile": pct,
        "latency_tail_beyond": beyond,
        "samples": {
            "rounds": res.rounds,
            "latency": len(res.samples),
            "setup": SETUP_REPEATS,
            "calibration": len(res.calibration),
            "items": res.attempted,
        },
        "busy_s": res.busy,
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, res, details


def main(argv=None) -> int:
    if not __debug__:
        print("perfbench: refusing to run under python -O, which strips the program's assert invariants", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "streamfec" / "__init__.py").is_file():
        print(f"perfbench: no streamfec sources under {SRC}; run it from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import streamfec

    if Path(streamfec.__file__).resolve().parent != (SRC / "streamfec").resolve():
        print(f"perfbench: imported streamfec from {streamfec.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from readme_cli import run_readme
    from workloads import DEFAULT_SEED, WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    expected = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)

    attempted = failed = 0
    errors: list[str] = []

    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="cli-") as workdir:
        cli_digests, cli_failures, cli_s = run_readme(Path(workdir))
    cli_bad = sorted(label for label, d in cli_digests.items() if expected["cli"].get(label) != d)
    attempted += len(cli_digests) + len(cli_failures)
    failed += len(cli_failures) + len(cli_bad)
    errors += cli_failures + [f"cli {label}: stdout digest changed" for label in cli_bad]

    slice_digest, slice_res = fingerprint(wl, DEFAULT_SEED)
    slice_ok = slice_digest == expected["workloads"].get(wl.name)
    attempted += slice_res.attempted + 1
    failed += slice_res.failed + (not slice_ok)
    errors += slice_res.errors + ([] if slice_ok else [f"{wl.name} fingerprint slice digest changed"])

    details = {
        "workload": wl.name,
        "provenance": provenance(args),
        "fingerprint": {"digest": slice_digest, "ok": slice_ok, "items": slice_res.attempted},
        "cli": {"ok": not (cli_failures or cli_bad), "commands": len(cli_digests) + len(cli_failures)},
    }

    if args.trace:
        metrics, passes, extra = traced_run(wl, args.seed, cli_s)
        for res in passes:
            attempted += res.attempted
            failed += res.failed
            errors += res.errors
        details.update(extra)
    else:
        metrics, res, timing = timed_run(wl, args.seed, args.seconds)
        attempted += res.attempted
        failed += res.failed
        errors += res.errors
        details.update(timing)
        details["raw"]["failed_fraction"] = {"value": failed / attempted, "unit": "ratio"}
    details["errors"] = errors[:10]
    correct = failed == 0
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
