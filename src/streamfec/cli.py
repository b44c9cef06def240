"""Command-line surface: constructions, verification, simulation,
bounds tables, pattern enumeration, equivalence sweeps, and the
exhaustive nonexistence search.  All results go to stdout as JSON or
CSV; progress goes to stderr.

Exit code 0 means the command completed (a failed verification is data,
not an error); nonzero means an operational error such as infeasible or
malformed parameters.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from itertools import product
from typing import Sequence

from .block_code import SystematicCode, build_mds, build_multi_burst, verify_delay_decodable
from .bounds import de_achievable, rate_bound
from .channel import (
    ChannelModel, ErasurePattern, ErrorPattern, _admissible_supports, burst_supports, enumerate_admissible
)
from .galois import GF, Field
from .search import _SEARCH_GUARD, progress_to_stderr, search_nonexistence
from .streaming import equivalence_sweep, simulate


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# The model spec kinds, parsed as "kind:a,w" or "kind:z,b,w", with the
# fields each takes.
_MODEL_SPECS = {
    "sw": (ChannelModel.sw, "a,w"),
    "mbsw": (ChannelModel.mbsw, "z,b,w"),
    "sw_err": (ChannelModel.sw_err, "a,w"),
    "mbsw_err": (ChannelModel.mbsw_err, "z,b,w"),
}


def _parse_model(spec: str) -> ChannelModel:
    kind, _, rest = spec.partition(":")
    if kind not in _MODEL_SPECS:
        raise ValueError(f"bad model spec {spec!r}: unknown kind")
    make, fields = _MODEL_SPECS[kind]
    values = rest.split(",")
    if len(values) != len(fields.split(",")):
        raise ValueError(f"bad model spec {spec!r}: {kind} takes {fields}")
    try:
        return make(*(int(x) for x in values))
    except ValueError as exc:
        raise ValueError(f"bad model spec {spec!r}: {exc}")


def _load_descriptor(path: str) -> SystematicCode:
    try:
        with open(path, encoding="utf-8") as fh:
            return SystematicCode.from_descriptor(json.load(fh))
    # `json` raises RecursionError on deeply nested arrays or objects.
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot load code descriptor {path}: {exc}")


def _cmd_construct(args) -> int:
    field = GF(args.gf, args.modulus)
    if args.mds:
        n, k = args.mds
        code = build_mds(n, k, field)
    else:
        k, z, b = args.multi_burst
        code = build_multi_burst(k, z, b, field)
    _emit(args, json.dumps(code.to_descriptor(), indent=2))
    return 0


def _cmd_verify_code(args) -> int:
    code = _load_descriptor(args.descriptor)
    if args.bursts:
        z, b = args.bursts
        patterns = burst_supports(code.n, z, b)
    else:
        model = _parse_model(args.model)
        if model.errors:
            raise ValueError(f"erasure patterns need an erasure-channel model, got {model.kind}")
        patterns = list(_admissible_supports(model, code.n, None))
    result = verify_delay_decodable(code, args.tau, patterns)
    obj = {
        "ok": result.ok,
        "patterns": len(patterns),
        "counterexample": None
        if result.counterexample is None
        else {"support": list(result.counterexample[0]), "symbol": result.counterexample[1]},
    }
    _emit(args, json.dumps(obj, indent=2))
    return 0


def _read_pattern(path: str, field: Field):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    # JSON text is an error pattern, whatever its top level holds, and
    # `ErrorPattern.from_json` says what a list lacks.
    if text.lstrip().startswith(("{", "[")):
        return ErrorPattern.from_json(text, field)
    return ErasurePattern.from_csv(text)


def _cmd_simulate(args) -> int:
    code = _load_descriptor(args.descriptor)
    model = _parse_model(args.model) if args.model else None
    pattern = _read_pattern(args.pattern, code.field)
    if args.horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {args.horizon}")
    rng = random.Random(args.seed)
    messages = [
        [rng.randrange(code.field.q) for _ in range(code.k)] for _ in range(args.horizon)
    ]
    report = simulate(code, args.tau, model, pattern, messages)
    _emit(args, report.to_json())
    return 0


def _parse_range(spec: str) -> range:
    # "z=1..3" -> range(1, 4)
    _, _, body = spec.partition("=")
    lo, _, hi = body.partition("..")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise ValueError(f"empty range {spec!r}: {hi} is below {lo}")
    return range(lo, hi + 1)


def _cmd_bounds(args) -> int:
    ranges = {"z": range(1, 2), "b": range(1, 2), "w": range(2, 3)}
    for spec in args.grid:
        name = spec.split("=", 1)[0]
        if name not in ranges:
            raise ValueError(f"unknown grid variable {name!r} (use z, b, w)")
        ranges[name] = _parse_range(spec)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["z", "b", "w", "mbsw_rate_bound", "mbsw_error_rate_bound", "de_achievable"])
    for z, b, w in product(ranges["z"], ranges["b"], ranges["w"]):
        if w <= z * b:
            continue
        erasure = rate_bound(ChannelModel.mbsw(z, b, w))
        error = rate_bound(ChannelModel.mbsw_err(z, b, w)) if w > 2 * z * b else ""
        writer.writerow([z, b, w, str(erasure), str(error), de_achievable(z, b, w)])
    _emit(args, buf.getvalue())
    return 0


def _cmd_enumerate_patterns(args) -> int:
    model = _parse_model(args.model)
    if args.count_only:
        count = sum(1 for _ in _admissible_supports(model, args.horizon, args.support_bound))
        _emit(args, json.dumps({"count": count}))
        return 0
    lines = [p.to_csv() for p in enumerate_admissible(model, args.horizon, args.support_bound)]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_equivalence_check(args) -> int:
    field = GF(args.gf, args.modulus)
    w = args.w
    bursts = (args.z, args.b)
    if args.a is not None and bursts == (None, None):
        model = ChannelModel.sw_err(args.a, w)
        code = build_mds(w, w - 2 * args.a, field)
    elif args.a is None and None not in bursts:
        model = ChannelModel.mbsw_err(args.z, args.b, w)
        code = build_multi_burst(w - 1 - (2 * args.z - 1) * args.b, 2 * args.z, args.b, field)
    else:
        raise ValueError("need either --a alone or both --z and --b")
    bound = args.support_bound if args.support_bound is not None else 2 * w - 1
    if bound < 0:
        raise ValueError(f"support bound must be nonnegative, got {bound}")
    _emit(args, json.dumps(equivalence_sweep(code, model, w - 1, bound + 1, args.seed)))
    return 0


def _cmd_search_nonexistence(args) -> int:
    field = GF(args.gf, args.modulus)
    progress = progress_to_stderr(f"search n={args.n} k={args.k}") if args.progress else None
    result = search_nonexistence(
        args.n,
        args.k,
        args.z,
        args.b,
        args.tau,
        field,
        guard=args.guard,
        start=args.resume_from,
        progress=progress,
    )
    obj = {
        "found": result["found"],
        "witness": result["witness"].to_descriptor() if result["witness"] else None,
        "candidates_checked": result["candidates_checked"],
        "total": result["total"],
    }
    _emit(args, json.dumps(obj, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamfec",
        description="Delay-constrained streaming codes over adversarial sliding-window channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code and emit its JSON descriptor")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mds", nargs=2, type=int, metavar=("N", "K"))
    group.add_argument("--multi-burst", nargs=3, type=int, metavar=("K", "Z", "B"))
    p.add_argument("--gf", type=int, required=True)
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify-code", help="check delay decodability of a code descriptor")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--tau", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--bursts", nargs=2, type=int, metavar=("Z", "B"))
    group.add_argument("--model", help="sw:a,w | mbsw:z,b,w")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_code)

    p = sub.add_parser("simulate", help="encode, apply a pattern file, decode, report JSON")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--model", help="sw:a,w | mbsw:z,b,w | sw_err:a,w | mbsw_err:z,b,w")
    p.add_argument("--pattern", required=True, help="CSV of 0/1 flags, or error-pattern JSON")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bounds", help="emit a CSV table of rate bounds over a parameter grid")
    p.add_argument("--grid", nargs="+", required=True, metavar="VAR=LO..HI")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("enumerate-patterns", help="list or count admissible erasure patterns")
    p.add_argument("--model", required=True, help="sw:a,w | mbsw:z,b,w")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--support-bound", type=int, default=None)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enumerate_patterns)

    p = sub.add_parser(
        "equivalence-check",
        help="exhaustive error-decoding sweep for the error/erasure equivalence",
    )
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--z", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--gf", type=int, required=True)
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--support-bound", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_equivalence_check)

    p = sub.add_parser("search-nonexistence", help="exhaust a systematic code space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--gf", type=int, required=True)
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--guard", type=int, default=_SEARCH_GUARD)
    p.add_argument("--resume-from", type=int, default=0)
    p.add_argument("--progress", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search_nonexistence)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # Bad input anywhere below, or a pattern or output file that
        # cannot be opened, is an operational error: one line, no
        # traceback, nonzero exit.
        raise SystemExit(f"streamfec {args.command}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
