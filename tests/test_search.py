import random
from itertools import combinations, product

import pytest

from streamfec import search
from streamfec.block_code import SystematicCode, VerifyResult, build_mds, build_multi_burst, verify_delay_decodable
from streamfec.channel import burst_supports
from streamfec.galois import GF
from streamfec.matrix import FieldMatrix
from streamfec.search import (
    brute_force_decodable,
    cross_validate,
    enumerate_codebook,
    search_nonexistence,
)

F2, F3, F8 = GF(2), GF(3), GF(8)


def test_brute_force_trivial_cases():
    code = build_mds(5, 3, F8)
    assert brute_force_decodable(code, 4, ())
    single_parity = SystematicCode(field=F2, n=3, k=2, P=FieldMatrix(F2, [[1], [1]]))
    assert not brute_force_decodable(single_parity, 2, (0, 1))
    assert brute_force_decodable(single_parity, 2, (0,))


def test_brute_force_matches_verifier_on_mds():
    code = build_mds(5, 3, F8)
    codebook = enumerate_codebook(code)
    for r in range(4):
        for support in combinations(range(5), r):
            assert brute_force_decodable(code, 4, support, codebook) == (r <= 2)


def test_oracle_rejects_supports_out_of_range():
    # the oracle must not read u[-1] or ignore position 9 of a [5,3] code
    code = build_mds(5, 3, F8)
    for support in ((-1,), (9,), (0, 5)):
        with pytest.raises(ValueError):
            brute_force_decodable(code, 4, support)
        with pytest.raises(ValueError):
            verify_delay_decodable(code, 4, [support])


def test_codebook_guard():
    code = build_mds(8, 5, GF(256))
    with pytest.raises(ValueError):
        enumerate_codebook(code)


def test_cross_validate_agreement():
    c53 = build_mds(5, 3, F8)
    sup53 = [s for r in range(4) for s in combinations(range(5), r)]
    assert cross_validate(c53, 4, sup53)
    c84 = build_multi_burst(4, 2, 2, F8)
    assert cross_validate(c84, 6, burst_supports(8, 2, 2))
    rng = random.Random(29)
    fam = burst_supports(7, 2, 2)
    for _ in range(20):
        p = FieldMatrix(F2, [[rng.randrange(2) for _ in range(4)] for _ in range(3)])
        code = SystematicCode(field=F2, n=7, k=3, P=p)
        assert cross_validate(code, 5, fam)


def test_search_small_nonexistence():
    res = search_nonexistence(7, 3, 2, 2, 5, F2)
    assert res == {"found": False, "witness": None, "candidates_checked": 4096, "total": 4096}


def test_search_finds_lexicographically_first_witness():
    res = search_nonexistence(4, 2, 1, 2, 2, F2)
    assert res["found"]
    assert res["witness"].P.to_lists() == [[1, 0], [0, 1]]
    assert res["candidates_checked"] == 10  # row-major index 9, zero-based
    assert verify_delay_decodable(res["witness"], 2, burst_supports(4, 1, 2)).ok


def test_search_agrees_with_reference_verifier_everywhere():
    # full cross-check of the scan kernel against the analytic verifier
    # over a space where both witnesses and failures exist
    n, k, z, b, tau = 5, 3, 1, 2, 3
    fam = burst_supports(n, z, b)
    first_survivor = None
    idx = 0
    for rows in product(list(product(range(3), repeat=2)), repeat=3):
        code = SystematicCode(field=F3, n=n, k=k, P=FieldMatrix(F3, list(rows)))
        if verify_delay_decodable(code, tau, fam).ok and first_survivor is None:
            first_survivor = idx
        idx += 1
    res = search_nonexistence(n, k, z, b, tau, F3)
    assert res["found"] and res["candidates_checked"] == first_survivor + 1


def test_search_determinism():
    r1 = search_nonexistence(7, 3, 2, 2, 5, F3)
    r2 = search_nonexistence(7, 3, 2, 2, 5, F3)
    assert r1 == r2
    assert not r1["found"] and r1["candidates_checked"] == 3**12


def test_search_resume_cursor():
    full = search_nonexistence(4, 2, 1, 2, 2, F2)
    resumed = search_nonexistence(4, 2, 1, 2, 2, F2, start=full["candidates_checked"])
    # scanning past the first witness finds the next one deterministically
    assert resumed["found"]
    assert verify_delay_decodable(resumed["witness"], 2, burst_supports(4, 1, 2)).ok


def test_search_guard_rejects_huge_spaces():
    with pytest.raises(ValueError):
        search_nonexistence(8, 4, 2, 2, 6, F8)


def test_search_validates_shape():
    with pytest.raises(ValueError):
        search_nonexistence(8, 5, 2, 2, 6, F2)  # n != k + z*b
    with pytest.raises(ValueError):
        search_nonexistence(7, 3, 2, 2, 2, F2)  # tau < k


def test_search_rejects_cursor_outside_space():
    # the [7,3] binary space has 4096 candidates; 4096 itself is the end
    assert search_nonexistence(7, 3, 2, 2, 5, F2, start=4096)["candidates_checked"] == 0
    for start in (-5, 4097, 99999):
        with pytest.raises(ValueError):
            search_nonexistence(7, 3, 2, 2, 5, F2, start=start)


def test_witness_confirmation_failure_raises(monkeypatch):
    # the kernel survivor is re-checked by the reference verifier; a
    # disagreement is a defect and must raise, not pass silently
    monkeypatch.setattr(search, "verify_delay_decodable", lambda *a: VerifyResult(False, ((0,), 0)))
    with pytest.raises(RuntimeError):
        search_nonexistence(4, 2, 1, 2, 2, F2)


def test_search_parallel_matches_sequential():
    seq = search_nonexistence(7, 3, 2, 2, 5, F2)
    par = search_nonexistence(7, 3, 2, 2, 5, F2, jobs=2)
    assert seq == par
    seq_w = search_nonexistence(4, 2, 1, 2, 2, F2)
    par_w = search_nonexistence(4, 2, 1, 2, 2, F2, jobs=3)
    assert seq_w["candidates_checked"] == par_w["candidates_checked"]
    assert seq_w["witness"] == par_w["witness"]
