"""The four closed-loop workloads of the benchmark.

Each workload builds its inputs from a seed in `setup` and then yields
rounds of items forever.  A round has a fixed composition, so the mix of
item kinds is the same in every run and only the drawn inputs change with
the seed.  An item is one call into the program (`run`, the only timed
part) plus an exactness check of its output (`check`, untimed), which
returns the canonical text that the output fingerprint hashes.

Every item counts toward one of two rates, part "a" or part "b", so that
a gain on one code path cannot hide a loss on the other inside a sum.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import product
from time import perf_counter
from typing import Callable, Iterator

from streamfec import block_code, channel, galois, search, streaming
from streamfec.channel import ChannelModel, ErasurePattern, ErrorPattern
from streamfec.matrix import FieldMatrix

DEFAULT_SEED = 0


class Mismatch(Exception):
    """An output differs from the exact expected answer."""


@dataclass
class Item:
    part: str  # "a" or "b": the rate the item counts toward
    units: int  # patterns, messages or candidates covered by the call
    run: Callable[[], object]
    check: Callable[[object], str]
    # "call": the call is one latency sample; "progress": each full
    # 2^16-candidate progress interval is one; "none": no sample.
    latency: str = "call"
    ticks: list[float] = field(default_factory=list)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _field(q: int) -> galois.Field:
    """A freshly built field (not the cached GF(q)), so that set-up pays
    for its tables every time it runs."""
    p, m = (2, q.bit_length() - 1) if q & (q - 1) == 0 else (q, 1)
    return galois.Field(p, m)


def _report_text(report: streaming.DecodeReport) -> str:
    return report.to_json() + "\n" + json.dumps(report.messages)


def _simulate(code, tau, model, pattern, messages) -> Callable[[], streaming.DecodeReport]:
    return lambda: streaming.simulate(code, tau, model, pattern, messages)


class ErrorSweep:
    """Seeded sample without replacement from two exhaustive error-pattern
    spaces, decoded by the reference error decoder through `simulate`.

    Space a is criterion 3: [5,3] MDS over GF(8), sw_err:1,5, tau=4, 10
    messages, every (1,5)-admissible support times the 35 unit error
    values.  Space b is the burst sweep of scripts/equivalence_sweep.py:
    [8,4] multi-burst over GF(8), mbsw_err:1,2,7, tau=6, supports in
    [0,4].  A round takes 3 patterns from a and 2 from b, close to the
    spaces' size ratio."""

    name = "error-sweep"
    unit = "patterns"
    parts = {"a": "sw_err:1,5 patterns/s", "b": "mbsw_err:1,2,7 patterns/s"}
    tail_percentile = 95.0
    slice_items = 40
    trace_rounds = 60
    _SPACE_SIZES = (18726, 12825)
    _ROUND = ("a", "a", "a", "b", "b")

    def setup(self, seed: int, span) -> dict:
        rng = random.Random(seed)
        with span("galois.field_build"):
            f8 = _field(8)
        spaces = {}
        specs = {
            # code, error model, tau, support model, messages
            "a": (block_code.build_mds(5, 3, f8), ChannelModel.sw_err(1, 5), 4, ChannelModel.sw(1, 5), 10),
            "b": (
                block_code.build_multi_burst(4, 2, 2, f8),
                ChannelModel.mbsw_err(1, 2, 7),
                6,
                ChannelModel.mbsw(1, 2, 7),
                5,
            ),
        }
        for (part, (code, model, tau, support_model, msg_count)), size in zip(specs.items(), self._SPACE_SIZES):
            with span("channel.enumerate_admissible"):
                supports = [p.support for p in channel.enumerate_admissible(support_model, msg_count)]
            values = [
                tuple(s if j == row else 0 for j in range(code.n)) for row in range(code.n) for s in range(1, f8.q)
            ]
            patterns = [(sup, combo) for sup in supports for combo in product(values, repeat=len(sup))]
            _expect(len(patterns) == size, f"{self.name} space {part} has {len(patterns)} patterns, not {size}")
            rng.shuffle(patterns)
            messages = tuple(tuple(rng.randrange(f8.q) for _ in range(code.k)) for _ in range(msg_count))
            spaces[part] = (code, model, tau, messages, patterns)
        return spaces

    def rounds(self, spaces: dict) -> Iterator[list[Item]]:
        cursor = {part: 0 for part in spaces}
        while True:
            items = []
            for part in self._ROUND:
                code, model, tau, messages, patterns = spaces[part]
                support, combo = patterns[cursor[part] % len(patterns)]
                cursor[part] += 1
                horizon = len(messages) + code.n - 1
                pattern = ErrorPattern.from_entries(horizon, code.n, dict(zip(support, combo)))
                items.append(Item(part, 1, _simulate(code, tau, model, pattern, messages), self._check(messages)))
            yield items

    @staticmethod
    def _check(messages):
        def check(report) -> str:
            _expect(report.pattern_admissible, "sampled error pattern judged inadmissible")
            _expect(report.success and not report.ambiguities, f"decode failed: {report.failures}")
            _expect(tuple(report.messages) == messages, "decoded messages differ from the sent ones")
            return _report_text(report)

        return check


def _admissible_flags(rng: random.Random, model: ChannelModel, horizon: int, p: float) -> list[int]:
    """Bernoulli(p) erasures, each kept only if the trailing window stays
    admissible; every window is checked when its last erasure is placed,
    so the whole pattern is admissible."""
    flags: list[int] = []
    for t in range(horizon):
        keep = 0
        if rng.random() < p:
            window = [s for s in range(max(0, t - model.w + 1), t) if flags[s]] + [t]
            if model.kind == "sw":
                keep = int(len(window) <= model.a)
            else:
                keep = int(channel.min_burst_cover(window, model.b) <= model.z)
        flags.append(keep)
    return flags


def _over_budget(rng: random.Random, model: ChannelModel, flags: list[int]) -> list[int]:
    """Erase one more burst than the model allows inside one window: a+1
    adjacent slots, or z+1 slots b apart, which need z+1 bursts."""
    flags = list(flags)
    t0 = rng.randrange(len(flags) - model.w)
    points = range(t0, t0 + model.a + 1) if model.kind == "sw" else range(t0, t0 + model.z * model.b + 1, model.b)
    for t in points:
        flags[t] = 1
    return flags


class ErasureStream:
    """Long erasure streams of 1000 seeded message packets each.

    Part a streams face sliding-window channels: [5,3]/GF(8) under sw:2,5
    at tau=4 (twice) and [9,5]/GF(16) under sw:4,9 at tau=8.  Part b
    streams face multi-burst channels: [8,4]/GF(8) under mbsw:2,2,7 at
    tau=6 (twice) and the criterion-9 periodic bound-pressure pattern on
    [8,5] MDS.  One [5,3] and one [8,4] stream per round carry an
    over-budget window, which leaves coordinates pending past their
    deadlines; the rest are seeded admissible patterns."""

    name = "erasure-stream"
    unit = "messages"
    parts = {"a": "sliding-window messages/s", "b": "multi-burst messages/s"}
    tail_percentile = 90.0
    slice_items = 6
    trace_rounds = 3
    horizon = 1000
    erasure_p = 0.25
    # (stream, pattern kind, part)
    _ROUND = (
        ("53", "admissible", "a"),
        ("84", "admissible", "b"),
        ("95", "admissible", "a"),
        ("53", "over", "a"),
        ("84", "over", "b"),
        ("85", "periodic", "b"),
    )

    def setup(self, seed: int, span) -> dict:
        with span("galois.field_build"):
            f8, f16 = _field(8), _field(16)
        streams = {
            "53": (block_code.build_mds(5, 3, f8), 4, ChannelModel.sw(2, 5)),
            "84": (block_code.build_multi_burst(4, 2, 2, f8), 6, ChannelModel.mbsw(2, 2, 7)),
            "95": (block_code.build_mds(9, 5, f16), 8, ChannelModel.sw(4, 9)),
            "85": (block_code.build_mds(8, 5, f8), 6, ChannelModel.mbsw(2, 2, 7)),
        }
        periodic = channel.periodic_mbsw_pattern(2, 2, 7, self.horizon // 8)
        return {"rng": random.Random(seed), "streams": streams, "periodic": periodic}

    def rounds(self, state: dict) -> Iterator[list[Item]]:
        rng = state["rng"]
        while True:
            items = []
            for key, kind, part in self._ROUND:
                code, tau, model = state["streams"][key]
                q = code.field.q
                messages = tuple(tuple(rng.randrange(q) for _ in range(code.k)) for _ in range(self.horizon))
                if kind == "periodic":
                    pattern = state["periodic"]
                else:
                    flags = _admissible_flags(rng, model, self.horizon, self.erasure_p)
                    if kind == "over":
                        flags = _over_budget(rng, model, flags)
                    pattern = ErasurePattern(self.horizon, tuple(flags))
                run = _simulate(code, tau, model, pattern, messages)
                items.append(Item(part, self.horizon, run, self._check(kind, messages)))
            yield items

    @staticmethod
    def _check(kind: str, messages):
        def check(report) -> str:
            _expect(report.pattern_admissible == (kind != "over"), f"{kind} pattern judged wrongly")
            if kind == "admissible":
                _expect(report.success, f"admissible pattern missed deadlines at {report.failures[:5]}")
            if kind == "periodic":
                # criterion 9: a rate-5/8 code misses from the first packet on
                _expect(not report.success and report.failures[0] == 0, "periodic pattern did not bind")
            for t, (sent, got) in enumerate(zip(messages, report.messages)):
                _expect(got is None or got == sent, f"packet {t} recovered with a wrong value")
            return _report_text(report)

        return check


class CodeSearch:
    """Exhaustive `search_nonexistence` at jobs=1, the paper's b|k
    evidence.  Part a runs the GF(2) kernel: [9,5] z=2 b=2 tau=7 (2^20,
    no witness), [8,4] z=2 b=2 tau=6 (2^16, no witness) and [9,3] z=2 b=3
    tau=6 (witness at cursor 148617).  Part b runs the q>2 kernel: [7,3]
    z=2 b=2 tau=5 over GF(3) (3^12, no witness) and [6,2] z=2 b=2 tau=4
    over GF(4) (witness).  A round runs each search once, rotated by the
    seed; a latency sample is one 2^16-candidate progress interval."""

    name = "code-search"
    unit = "candidates"
    parts = {"a": "GF(2) candidates/s", "b": "GF(q>2) candidates/s"}
    tail_percentile = 90.0
    slice_items = 3
    trace_rounds = 1
    # n, k, z, b, tau, q, found, candidates_checked
    _SEARCHES = (
        (6, 2, 2, 2, 4, 4, True, 17426),
        (8, 4, 2, 2, 6, 2, False, 1 << 16),
        (9, 3, 2, 3, 6, 2, True, 148618),
        (9, 5, 2, 2, 7, 2, False, 1 << 20),
        (7, 3, 2, 2, 5, 3, False, 3**12),
    )

    def setup(self, seed: int, span) -> dict:
        with span("galois.field_build"):
            fields = {q: _field(q) for q in sorted({s[5] for s in self._SEARCHES})}
        families = {(n, z, b): channel.burst_supports(n, z, b) for n, _, z, b, *_ in self._SEARCHES}
        return {"seed": seed, "fields": fields, "families": families}

    def rounds(self, state: dict) -> Iterator[list[Item]]:
        count = len(self._SEARCHES)
        r = 0
        while True:
            shift = (state["seed"] + r) % count
            order = self._SEARCHES[shift:] + self._SEARCHES[:shift]
            yield [self._item(state, spec) for spec in order]
            r += 1

    @staticmethod
    def _item(state: dict, spec) -> Item:
        n, k, z, b, tau, q, found, checked = spec
        f = state["fields"][q]
        family = state["families"][(n, z, b)]
        item = Item("a" if q == 2 else "b", checked, None, None, latency="progress")
        ticks = item.ticks

        def progress(_cursor: int) -> None:
            ticks.append(perf_counter())

        def check(result) -> str:
            _expect(result["found"] == found, f"[{n},{k}] over GF({q}): found={result['found']}")
            _expect(result["candidates_checked"] == checked, f"[{n},{k}] over GF({q}): wrong candidate count")
            _expect(result["total"] == q ** (k * (n - k)), f"[{n},{k}] over GF({q}): wrong space size")
            witness = result["witness"]
            if found:
                # an independent route: the generic nullspace verifier
                ok = block_code.verify_delay_decodable_general(witness.generator, tau, family).ok
                _expect(ok, f"[{n},{k}] over GF({q}): witness fails the general verifier")
            return json.dumps(
                {
                    "found": result["found"],
                    "candidates_checked": result["candidates_checked"],
                    "total": result["total"],
                    "witness": witness.to_descriptor() if witness is not None else None,
                },
                sort_keys=True,
            )

        item.run = lambda: search.search_nonexistence(n, k, z, b, tau, f, jobs=1, progress=progress)
        item.check = check
        return item


class VerifyOracle:
    """`verify_delay_decodable` pattern by pattern on seeded random
    systematic codes against their full (2,2)-burst families.  Part a:
    [7,3] codes over GF(2) and GF(3) at tau=5, each pattern also decided
    by the codebook oracle `brute_force_decodable`, which must agree.
    Part b: [8,4] codes over GF(8) at tau=6 and [9,5] codes over GF(16)
    at tau=7, plus whole-family calls on the constructed multi-burst codes
    with the criterion-4 and criterion-6 parameters at tau*, which must
    verify.  Whole-family calls are not latency samples."""

    name = "verify-oracle"
    unit = "patterns"
    parts = {"a": "GF(2)/GF(3) patterns/s, oracle-checked", "b": "GF(8)/GF(16) and constructed-code patterns/s"}
    tail_percentile = 99.0
    slice_items = 1335  # one whole round
    trace_rounds = 8
    codes_per_round = 4
    # q, n, k, z, b, tau, oracle
    _RANDOM = (
        (2, 7, 3, 2, 2, 5, True),
        (3, 7, 3, 2, 2, 5, True),
        (8, 8, 4, 2, 2, 6, False),
        (16, 9, 5, 2, 2, 7, False),
    )
    # k, z, b, q: criterion 6 (its first entry is the criterion-4 code)
    _CONSTRUCTED = ((4, 2, 2, 8), (2, 2, 2, 8), (2, 2, 2, 4), (3, 1, 3, 5), (3, 2, 1, 7), (6, 2, 3, 8), (4, 3, 2, 8))

    def setup(self, seed: int, span) -> dict:
        qs = sorted({s[0] for s in self._RANDOM} | {c[3] for c in self._CONSTRUCTED})
        with span("galois.field_build"):
            fields = {q: _field(q) for q in qs}
        families = {(n, z, b): channel.burst_supports(n, z, b) for _, n, _, z, b, _, _ in self._RANDOM}
        constructed = []
        for k, z, b, q in self._CONSTRUCTED:
            code = block_code.build_multi_burst(k, z, b, fields[q])
            family = channel.burst_supports(code.n, z, b)
            constructed.append((code, block_code.delay_tau_star(k, z, b), family))
        return {"rng": random.Random(seed), "fields": fields, "families": families, "constructed": constructed}

    def rounds(self, state: dict) -> Iterator[list[Item]]:
        rng = state["rng"]
        while True:
            items = []
            for _ in range(self.codes_per_round):
                for q, n, k, z, b, tau, oracle in self._RANDOM:
                    f = state["fields"][q]
                    p = FieldMatrix(f, [[rng.randrange(q) for _ in range(n - k)] for _ in range(k)])
                    code = block_code.SystematicCode(field=f, n=n, k=k, P=p)
                    book = search.enumerate_codebook(code) if oracle else None
                    part = "a" if oracle else "b"
                    for support in state["families"][(n, z, b)]:
                        items.append(Item(part, 1, self._run(code, tau, support, book), self._check))
            for code, tau, family in state["constructed"]:
                items.append(Item("b", len(family), self._run_family(code, tau, family), self._check_family, "none"))
            yield items

    @staticmethod
    def _run(code, tau, support, book):
        if book is None:
            return lambda: (block_code.verify_delay_decodable(code, tau, [support]), None)
        return lambda: (
            block_code.verify_delay_decodable(code, tau, [support]),
            search.brute_force_decodable(code, tau, support, book),
        )

    @staticmethod
    def _check(out) -> str:
        verdict, oracle = out
        _expect(oracle is None or oracle == verdict.ok, f"verifier {verdict.ok} != oracle {oracle}")
        return json.dumps([verdict.ok, verdict.counterexample, oracle])

    @staticmethod
    def _run_family(code, tau, family):
        return lambda: block_code.verify_delay_decodable(code, tau, family)

    @staticmethod
    def _check_family(verdict) -> str:
        _expect(verdict.ok, f"constructed code fails at {verdict.counterexample}")
        return json.dumps([verdict.ok, verdict.counterexample])


WORKLOADS = {w.name: w for w in (ErrorSweep(), ErasureStream(), CodeSearch(), VerifyOracle())}
