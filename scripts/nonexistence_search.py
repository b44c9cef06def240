#!/usr/bin/env python3
"""Exhaust systematic code spaces against multi-burst erasures.

Reproduces the divisibility evidence: at the minimum delay
tau* = k + (z-1)b, an [k+zb, k] code surviving every (z,b)-burst exists
only when b divides k.  The [9,5] space at delay 7 (over GF(2) to GF(4),
up to 4^20 candidates), the [7,3] space at delay 5 (over GF(2) to GF(7),
up to 7^12) and the [10,4] space with b=3 at delay 7 (over GF(2) and
GF(3), up to 3^24) come up empty, and so do the z=3 [9,3] space with
b=2 at delay 7 over GF(2) and GF(3) and the binary b∤k spaces up to
[13,7] with z=2, b=3 (2^42 candidates), which the prefix-pruned search
refutes in the first coefficient rows.  Over q > 2 the search also
skips candidates that a symmetry maps to an earlier candidate judged
alike, by three rules: scaling a parity column (a column's first
nonzero entry above 1), scaling a coefficient row (a row's leading
nonzero digit above 1) and, over GF(4), x -> x^2 on every entry (a
row lowered by it under rows it fixes), each passing a whole run of
such rows in one move.  The divisible [8,4] case has an explicit
construction.

Three rows have b | k and still no code: [12,6] and [14,8] with z=3,
b=2 over GF(2), and [12,8] with z=2, b=2 over GF(4) (4^32 candidates,
the longest row).  They are field-size data, not counterexamples: the
construction needs a field of size q >= k/b + z.

Exits 1 if a "b does not divide k" space holds a code or the [8,4]
construction fails to verify.
"""

import json
import sys
import time

from streamfec import GF, build_multi_burst, burst_supports, search_nonexistence, verify_delay_decodable

NON_DIVISIBLE = "b does not divide k"

# n, k, z, b, tau, q, and the label of what an empty space shows
TASKS = [
    (9, 5, 2, 2, 7, 2, NON_DIVISIBLE),
    (7, 3, 2, 2, 5, 2, NON_DIVISIBLE),
    (7, 3, 2, 2, 5, 3, NON_DIVISIBLE),
    (7, 3, 2, 2, 5, 4, NON_DIVISIBLE),
    (7, 3, 2, 2, 5, 5, NON_DIVISIBLE),
    (7, 3, 2, 2, 5, 7, NON_DIVISIBLE),
    (9, 5, 2, 2, 7, 3, NON_DIVISIBLE),
    (9, 5, 2, 2, 7, 4, NON_DIVISIBLE),
    (9, 3, 3, 2, 7, 2, NON_DIVISIBLE),
    (9, 3, 3, 2, 7, 3, NON_DIVISIBLE),
    (10, 4, 2, 3, 7, 2, NON_DIVISIBLE),
    (10, 4, 2, 3, 7, 3, NON_DIVISIBLE),
    (11, 5, 2, 3, 8, 2, NON_DIVISIBLE),
    (13, 7, 2, 3, 10, 2, NON_DIVISIBLE),
    (11, 7, 2, 2, 9, 2, NON_DIVISIBLE),
    (13, 9, 2, 2, 11, 2, NON_DIVISIBLE),
    (12, 6, 3, 2, 10, 2, "field-size data, b divides k"),
    (14, 8, 3, 2, 12, 2, "field-size data, b divides k"),
    (12, 8, 2, 2, 10, 4, "field-size data, b divides k"),
]


def main() -> int:
    contradictions = []
    for n, k, z, b, tau, q, label in TASKS:
        t0 = time.time()
        # the guard is the whole space: each target is meant to be exhausted
        res = search_nonexistence(n, k, z, b, tau, GF(q), guard=q ** (k * (n - k)))
        print(
            json.dumps(
                {
                    "n": n, "k": k, "z": z, "b": b, "tau": tau, "gf": q,
                    "evidence": label,
                    "found": res["found"],
                    "candidates_checked": res["candidates_checked"],
                    "seconds": round(time.time() - t0, 2),
                }
            )
        )
        if label == NON_DIVISIBLE and res["found"]:
            contradictions.append(f"[{n},{k}] z={z} b={b} tau={tau} over GF({q}) holds a code")
    # the b | k counterpart: a [8,4] code exists and verifies at tau* = 6
    code = build_multi_burst(4, 2, 2, GF(8))
    ok = verify_delay_decodable(code, 6, burst_supports(8, 2, 2)).ok
    print(json.dumps({"n": 8, "k": 4, "z": 2, "b": 2, "tau": 6, "gf": 8, "constructed": ok}))
    if not ok:
        contradictions.append("the constructed [8,4] code fails the verifier at tau = 6")
    for line in contradictions:
        print(f"nonexistence_search: {line}", file=sys.stderr)
    return 1 if contradictions else 0


if __name__ == "__main__":
    sys.exit(main())
