#!/usr/bin/env python3
"""Operational check of the error/erasure equivalence for stream codes.

A code whose diagonal embedding survives 2a erasures per window is run
as an error-correcting stream code at budget a (and the multi-burst
analogue at doubled burst count), sweeping every admissible error
support over a bounded range with a spanning set of error values.  Every
decode must be exact with no ambiguity.
"""

import json
import time

from streamfec import ChannelModel, GF, build_mds, build_multi_burst, equivalence_sweep


def main() -> None:
    t0 = time.time()
    # random errors: one per window of 5, [5,3] MDS, delay 4, supports in [0, 9]
    res = equivalence_sweep(build_mds(5, 3, GF(8)), ChannelModel.sw_err(1, 5), 4, 10, seed=0)
    print(json.dumps({"model": "sw_err:1,5", "code": "[5,3] gf8", **res}))
    # burst errors: one length-2 burst per window of 7, [8,4], delay 6, supports in [0, 4]
    res = equivalence_sweep(build_multi_burst(4, 2, 2, GF(8)), ChannelModel.mbsw_err(1, 2, 7), 6, 5, seed=0)
    print(json.dumps({"model": "mbsw_err:1,2,7", "code": "[8,4] gf8", **res}))
    print(json.dumps({"seconds": round(time.time() - t0, 1)}))


if __name__ == "__main__":
    main()
