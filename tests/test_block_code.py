import json
import random
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfec.block_code import (
    CausalCode,
    SystematicCode,
    build_mds,
    build_multi_burst,
    causal_to_systematic,
    check_full_rank_property,
    check_window_rank_properties,
    delay_tau_star,
    verify_delay_decodable,
    verify_delay_decodable_general,
)
from streamfec.channel import burst_supports
from streamfec.galois import GF
from streamfec.matrix import FieldMatrix, rank
from streamfec.search import enumerate_codebook

F2, F3, F5, F8 = GF(2), GF(3), GF(5), GF(8)


# -- constructions ----------------------------------------------------------


def test_single_parity_over_gf2():
    code = build_mds(4, 3, F2)
    assert code.P.to_lists() == [[1], [1], [1]]
    # any single erasure is recoverable with full delay
    assert verify_delay_decodable(code, 3, [(i,) for i in range(4)]).ok


def test_repetition_over_small_field():
    code = build_mds(5, 1, F3)
    assert code.P.to_lists() == [[1, 1, 1, 1]]
    supports = [s for r in range(5) for s in combinations(range(5), r)]
    assert verify_delay_decodable(code, 4, supports).ok


def test_mds_examples_every_redundancy_set_independent():
    code = build_mds(5, 3, F8)
    h = code.parity
    for cols in combinations(range(5), 2):
        assert rank(h.submatrix(range(2), cols)) == 2
    code45 = build_mds(4, 2, F5)
    h45 = code45.parity
    for cols in combinations(range(4), 2):
        assert rank(h45.submatrix(range(2), cols)) == 2


def test_mds_generator_minors_invertible():
    code = build_mds(5, 3, F8)
    g = code.generator
    for cols in combinations(range(5), 3):
        assert rank(g.submatrix(range(3), cols)) == 3


def test_mds_rejects_small_fields():
    with pytest.raises(ValueError):
        build_mds(5, 3, GF(4))
    with pytest.raises(ValueError):
        build_mds(5, 0, F8)


def test_code_invariants():
    for code in (build_mds(5, 3, F8), build_multi_burst(4, 2, 2, F8)):
        prod = code.generator.mul(code.parity.transpose())
        assert prod == FieldMatrix.zeros(code.field, code.k, code.n - code.k)
        ident = code.parity.submatrix(range(code.n - code.k), range(code.k, code.n))
        assert ident == FieldMatrix.identity(code.field, code.n - code.k)


def test_multi_burst_example_verifies_at_tau_star():
    code = build_multi_burst(4, 2, 2, F8)
    assert (code.n, code.k) == (8, 4)
    assert verify_delay_decodable(code, 6, burst_supports(8, 2, 2)).ok


def test_multi_burst_single_burst_case():
    # k = b, z = 1: [2b, b] code recovers any single length-b burst at delay b
    code = build_multi_burst(3, 1, 3, F5)
    assert (code.n, code.k) == (6, 3)
    assert delay_tau_star(3, 1, 3) == 3
    assert verify_delay_decodable(code, 3, burst_supports(6, 1, 3)).ok


def test_multi_burst_b1_degenerates_to_mds():
    code = build_multi_burst(3, 2, 1, GF(7))
    assert code.P == build_mds(5, 3, GF(7)).P
    assert verify_delay_decodable(code, 4, [s for s in burst_supports(5, 2, 1)]).ok


def test_multi_burst_interleaving_layout():
    # symbol j*b+r belongs to interleaved component r: parity columns touch
    # only message rows of the same residue class
    code = build_multi_burst(4, 2, 2, F8)
    for row in range(4):
        for col in range(4):
            if code.P[row, col] != 0:
                assert row % 2 == col % 2


def test_multi_burst_preconditions():
    with pytest.raises(ValueError):
        build_multi_burst(5, 2, 2, F8)  # b does not divide k
    with pytest.raises(ValueError):
        build_multi_burst(4, 2, 2, F3)  # q < k/b + z


# -- causal to systematic ---------------------------------------------------


def test_causal_to_systematic_identity_on_systematic_input():
    code = build_mds(5, 3, F8)
    causal = CausalCode(field=F8, n=5, k=3, G=code.generator)
    assert causal_to_systematic(causal).P == code.P


def test_causal_to_systematic_hand_example():
    causal = CausalCode(field=F2, n=3, k=2, G=FieldMatrix(F2, [[1, 1, 1], [0, 1, 1]]))
    sys_code = causal_to_systematic(causal)
    assert sys_code.generator.to_lists() == [[1, 0, 0], [0, 1, 1]]


def _random_causal(field, n, k, rng):
    g = [[0] * n for _ in range(k)]
    for i in range(k):
        g[i][i] = rng.randrange(1, field.q)
        for j in range(i + 1, n):
            g[i][j] = rng.randrange(field.q)
    return CausalCode(field=field, n=n, k=k, G=FieldMatrix(field, g))


def test_causal_to_systematic_preserves_row_space():
    rng = random.Random(11)
    for field in (F2, F8):
        for _ in range(10):
            causal = _random_causal(field, 6, 3, rng)
            sys_code = causal_to_systematic(causal)
            stacked = FieldMatrix(field, causal.G.to_lists() + sys_code.generator.to_lists())
            assert rank(stacked) == 3


def _codebook_verdict(book, n, k, tau, support):
    """The verifier's answer for one support, decided on the codebook:
    the first erased message coordinate i that some codeword zero on the
    unerased positions up to min(i + tau, n-1) leaves nonzero."""
    for i in support:
        if i < k:
            kept = [j for j in range(min(i + tau, n - 1) + 1) if j not in support]
            if any(u[i] and not any(c[j] for j in kept) for u, c in book):
                return False, (support, i)
    return True, None


def _assert_matches_codebook(verify, book, n, k, taus, supports):
    """`verify(tau, patterns)` against the codebook on every support one
    at a time and on the whole family; returns the verdicts seen."""
    seen = set()
    for tau in taus:
        first_miss = None
        for support in supports:
            want = _codebook_verdict(book, n, k, tau, support)
            got = verify(tau, [support])
            assert (got.ok, got.counterexample) == want, (tau, support)
            seen.add(want[0])
            first_miss = first_miss or want[1]
        got = verify(tau, supports)
        assert (got.ok, got.counterexample) == (first_miss is None, first_miss)
    return seen


def test_causal_delay_decodability_matches_systematic_transform():
    # the general verifier on random causal generators, against the
    # codebook of c = u . G for the causal message u itself (not the
    # systematized code), at every delay from 0 to n-1
    rng = random.Random(13)
    n, k = 6, 2
    supports = burst_supports(n, 2, 2)
    seen = set()
    for field in (F2, F3, GF(4)):
        for _ in range(6):
            g = _random_causal(field, n, k, rng).G
            book = [(u, g.vector_mul(u)) for u in product(range(field.q), repeat=k)]
            verify = partial(verify_delay_decodable_general, g)
            seen |= _assert_matches_codebook(verify, book, n, k, range(n), supports)
    assert seen == {True, False}


def test_general_verifier_agrees_on_systematic_codes():
    # both verifiers on random, typically non-MDS systematic codes,
    # against their codebook at every delay from k to n-1
    rng = random.Random(17)
    n, k = 7, 3
    supports = burst_supports(n, 2, 2)
    seen = set()
    for field in (F2, F3, GF(4)):
        for _ in range(4):
            p = FieldMatrix(field, [[rng.randrange(field.q) for _ in range(n - k)] for _ in range(k)])
            code = SystematicCode(field=field, n=n, k=k, P=p)
            book = enumerate_codebook(code)
            for verify in (
                partial(verify_delay_decodable, code),
                partial(verify_delay_decodable_general, code.generator),
            ):
                seen |= _assert_matches_codebook(verify, book, n, k, range(k, n), supports)
    assert seen == {True, False}


def test_general_verifier_rejects_singular_leading_block():
    with pytest.raises(ValueError):
        verify_delay_decodable_general(FieldMatrix(F2, [[1, 1, 1], [1, 1, 0]]), 2, [(0,)])


def test_causal_requires_invertible_triangular_block():
    with pytest.raises(ValueError):
        CausalCode(field=F2, n=3, k=2, G=FieldMatrix(F2, [[1, 1, 1], [1, 1, 0]]))
    with pytest.raises(ValueError):
        CausalCode(field=F2, n=3, k=2, G=FieldMatrix(F2, [[0, 1, 1], [0, 1, 0]]))


# -- the delay verifier -----------------------------------------------------


def test_verify_empty_pattern_set():
    code = build_mds(5, 3, F8)
    assert verify_delay_decodable(code, 4, []).ok


def test_verify_mds_all_double_erasures():
    code = build_mds(5, 3, F8)
    supports = [s for r in range(3) for s in combinations(range(5), r)]
    assert verify_delay_decodable(code, 4, supports).ok


def test_verify_reports_first_counterexample():
    code = build_mds(5, 3, F8)
    res = verify_delay_decodable(code, 4, [(0, 1, 2)])
    assert not res.ok
    assert res.counterexample == ((0, 1, 2), 0)


def test_no_gf2_95_code_survives_dense_bursts():
    # spot-check: random [9,5] binary codes all fail some (2,2)-burst at
    # delay 7 (the exhaustive version is an acceptance criterion)
    rng = random.Random(19)
    supports = burst_supports(9, 2, 2)
    for _ in range(25):
        p = FieldMatrix(F2, [[rng.randrange(2) for _ in range(4)] for _ in range(5)])
        code = SystematicCode(field=F2, n=9, k=5, P=p)
        assert not verify_delay_decodable(code, 7, supports).ok


def test_verify_fails_immediately_without_parity():
    code = SystematicCode(field=F8, n=5, k=3, P=FieldMatrix.zeros(F8, 3, 2))
    res = verify_delay_decodable(code, 4, [(0,)])
    assert not res.ok
    assert res.counterexample == ((0,), 0)


def test_verify_tau_out_of_range():
    code = build_mds(5, 3, F8)
    with pytest.raises(ValueError):
        verify_delay_decodable(code, 2, [(0,)])
    with pytest.raises(ValueError):
        verify_delay_decodable(code, 5, [(0,)])


# -- parity window-rank checks ----------------------------------------------


def test_full_rank_property_on_constructions():
    assert check_full_rank_property(build_multi_burst(4, 2, 2, F8), 2, 2)
    assert check_full_rank_property(build_multi_burst(3, 1, 3, F5), 1, 3)
    assert check_full_rank_property(build_multi_burst(2, 2, 2, F8), 2, 2)


def test_full_rank_property_fails_on_zero_column():
    p = FieldMatrix(F8, [[0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 1, 2], [0, 3, 4, 5]])
    code = SystematicCode(field=F8, n=8, k=4, P=p)
    assert not check_full_rank_property(code, 2, 2)


def test_full_rank_property_shape_check():
    with pytest.raises(ValueError):
        check_full_rank_property(build_mds(5, 3, F8), 2, 2)


def test_window_rank_example_rank_one_overall():
    a = FieldMatrix(F2, [[0, 1, 0, 1], [0, 1, 0, 1]])
    rep = check_window_rank_properties(a, 2, 2)
    assert (rep.p1, rep.p2, rep.p3) == (True, True, True)
    assert not rep.p4
    assert not rep.premises_hold


def test_window_rank_example_gf3_satisfier():
    a = FieldMatrix(F3, [[0, 1, 0, 1], [0, 1, 0, 2]])
    rep = check_window_rank_properties(a, 2, 2)
    assert rep.premises_hold
    assert rep.conclusion_holds


def test_window_rank_zero_last_column_violates_premises():
    # exhaustive at (b, m) = (2, 2) over GF(2): no matrix with an all-zero
    # last column satisfies P1-P4 (the acceptance criterion widens this)
    for entries in product(range(2), repeat=6):
        rows = [(0, entries[0], entries[1], 0), (0, entries[3], entries[4], 0)]
        rep = check_window_rank_properties(FieldMatrix(F2, rows), 2, 2)
        assert not rep.premises_hold


def test_window_rank_shape_validation():
    with pytest.raises(ValueError):
        check_window_rank_properties(FieldMatrix(F2, [[0, 1], [0, 1]]), 2, 2)
    with pytest.raises(ValueError):
        check_window_rank_properties(FieldMatrix(F2, [[0] * 4]), 2, 2)


def test_delay_tau_star_examples():
    assert delay_tau_star(5, 2, 2) == 7
    assert delay_tau_star(3, 4, 3) == 12  # k = b: z*b dominates
    assert delay_tau_star(1, 3, 4) == 12
    with pytest.raises(ValueError):
        delay_tau_star(0, 1, 1)


# -- the recovery query against the codebook --------------------------------


def _dot(field, row, y):
    acc = 0
    for a, b in zip(row, y):
        acc = field.add(acc, field.mul(a, b))
    return acc


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n,k", [(5, 2), (6, 3)])
def test_recovery_matches_codebook(n, k, q):
    """Every (prefix known, avail) query of a random, typically non-MDS
    code, decided independently by enumerating the codebook."""
    f = GF(q)
    rng = random.Random(10 * n + q)
    code = SystematicCode(f, n, k, FieldMatrix(f, [[rng.randrange(q) for _ in range(n - k)] for _ in range(k)]))
    book = enumerate_codebook(code)
    for avail in range(1 << n):
        positions = [j for j in range(n) if avail >> j & 1]
        for g in range(k + 1):
            checks, pins = code.recovery((1 << g) - 1, avail)
            assert set(pins) <= set(range(g, k))
            zero_given = [(u, c) for u, c in book if not any(u[:g])]
            for i in range(g, k):
                # u_i is fixed by a prefix iff no codeword that is zero on
                # the given coordinates and on the prefix has u_i != 0
                fixed_at = [
                    p
                    for p in positions
                    if all(u[i] == 0 for u, c in zero_given if not any(c[j] for j in positions if j <= p))
                ]
                assert pins.get(i, (None,))[0] == (fixed_at[0] if fixed_at else None)
            observed = set()
            for u, c in book:
                y = u[:g] + tuple(c[j] for j in positions)
                observed.add(y)
                assert all(_dot(f, row, y) == 0 for row in checks)
                for i, (p, row) in pins.items():
                    assert _dot(f, row, y) == u[i]
                    assert not any(row[g + l] for l, j in enumerate(positions) if j > p)
            for _ in range(20):
                y = tuple(rng.randrange(q) for _ in range(g + len(positions)))
                assert all(_dot(f, row, y) == 0 for row in checks) == (y in observed)


# -- descriptors -------------------------------------------------------------


def test_descriptor_roundtrip_bit_exact():
    for code in (build_mds(5, 3, F8), build_multi_burst(4, 2, 2, F8)):
        blob = json.dumps(code.to_descriptor(), indent=2)
        again = SystematicCode.from_descriptor(json.loads(blob))
        assert again == code
        assert json.dumps(again.to_descriptor(), indent=2) == blob


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.data())
def test_random_codes_roundtrip(n, data):
    k = data.draw(st.integers(1, n - 1))
    entries = data.draw(
        st.lists(
            st.lists(st.integers(0, 7), min_size=n - k, max_size=n - k),
            min_size=k,
            max_size=k,
        )
    )
    code = SystematicCode(field=F8, n=n, k=k, P=FieldMatrix(F8, entries))
    assert SystematicCode.from_descriptor(code.to_descriptor()) == code
