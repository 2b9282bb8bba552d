import math
import random
from fractions import Fraction

import numpy as np

from affkl import linalg
from affkl.fields import PrimeField, Rationals
from affkl.linalg import (
    _MODULAR_PRIMES,
    _kernel_fraction,
    independent_rows,
    kernel,
    kernel_field,
    kernel_mod_p,
    kernel_rational,
    poly_kernel,
    poly_rank,
    rank,
    rank_mod_p,
    rref_field,
    rref_mod_p,
    solve,
    solve_field,
    solve_mod_p,
    SpanSolver,
)
from affkl.polys import PolyRing


def test_kernel_mod_p_small():
    a = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.int64)
    basis = kernel_mod_p(a, 5)
    assert len(basis) == 2
    for v in basis:
        assert np.all((a @ v) % 5 == 0)
    assert rank_mod_p(a, 5) == 1


def test_kernel_mod_p_random():
    rng = random.Random(1)
    p = 3
    for _ in range(20):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        a = np.array([[rng.randrange(p) for _ in range(cols)]
                      for _ in range(rows)], dtype=np.int64)
        basis = kernel_mod_p(a, p)
        for v in basis:
            assert np.all((a @ v) % p == 0)
        assert len(basis) == cols - rank_mod_p(a, p)


def test_solve_mod_p():
    a = np.array([[1, 1], [0, 1]], dtype=np.int64)
    b = np.array([3, 4], dtype=np.int64)
    x = solve_mod_p(a, b, 7)
    assert np.all((a @ x - b) % 7 == 0)
    bad = np.array([[1, 1], [1, 1]], dtype=np.int64)
    assert solve_mod_p(bad, np.array([1, 2]), 7) is None


def _gf2_cases():
    """Random integer matrices with zero, duplicate and negative rows."""
    rng = np.random.default_rng(3)
    for ncols in (1, 7, 8, 9, 63, 64, 65, 130):
        yield np.zeros((0, ncols), dtype=np.int64)
        for nrows in (1, 5, 40, 200):
            for density in (0.05, 0.3, 0.8):
                mask = rng.random((nrows, ncols)) < density
                a = np.where(mask, rng.integers(-7, 8, (nrows, ncols)), 0)
                if nrows > 3:
                    a[1] = 0
                    a[2] = a[0]
                    a[3] = a[0] + 4
                yield a.astype(np.int64)


def _assert_rref_matches_field(a, p):
    """rref_mod_p(a, p) equals the generic elimination over GF(p)."""
    before = a.copy()
    red, pivots = rref_mod_p(a, p)
    ref, ref_pivots = rref_field((a % p).tolist(), PrimeField(p))
    assert np.array_equal(a, before)
    assert pivots == ref_pivots
    assert red.shape == (len(pivots), a.shape[1])
    assert red.dtype == np.int64
    assert red.tolist() == ref


def test_rref_mod_2_matches_dense_loop():
    for a in _gf2_cases():
        _assert_rref_matches_field(a, 2)


def test_rref_mod_odd_p_matches_dense_loop():
    for p in (3, 5, 7, _MODULAR_PRIMES[0]):
        for a in _gf2_cases():
            _assert_rref_matches_field(a, p)


def test_kernel_rank_solve_mod_2():
    rng = np.random.default_rng(4)
    for a in _gf2_cases():
        ncols = a.shape[1]
        rank = rank_mod_p(a, 2)
        basis = kernel_mod_p(a, 2)
        assert len(basis) == ncols - rank
        for v in basis:
            assert v.dtype == np.int64
            assert np.all((a @ v) % 2 == 0)
        if a.shape[0] == 0:
            continue
        x0 = rng.integers(0, 2, ncols)
        x = solve_mod_p(a, a @ x0, 2)
        assert np.all((a @ x - a @ x0) % 2 == 0)
    a = np.array([[1, 1, 0], [3, -1, 2], [0, 0, 1]], dtype=np.int64)
    assert rank_mod_p(a, 2) == 2
    assert solve_mod_p(a, np.array([1, 0, 0]), 2) is None
    assert solve_mod_p(a, np.array([1, 1, 0]), 2) is not None


def test_kernel_mod_p_empty():
    basis = kernel_mod_p(np.zeros((0, 3), dtype=np.int64), 2)
    assert [list(v) for v in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_mod_p(np.zeros((2, 0), dtype=np.int64), 5) == []


def test_modular_primes_are_distinct_primes():
    assert len(set(_MODULAR_PRIMES)) == len(_MODULAR_PRIMES)
    for p in _MODULAR_PRIMES:
        assert all(p % d for d in range(2, math.isqrt(p) + 1)), p


def test_kernel_rational_recovers_from_unlucky_first_prime(monkeypatch):
    def no_fallback(a_int):
        raise AssertionError("reached the Fraction fallback")

    monkeypatch.setattr(linalg, "_kernel_fraction", no_fallback)
    basis = kernel_rational([[_MODULAR_PRIMES[0], 1, 0], [0, 0, 1]])
    assert basis == [[Fraction(-1), Fraction(_MODULAR_PRIMES[0]), Fraction(0)]]


def test_kernel_rational_matches_fraction():
    rng = random.Random(2)
    for _ in range(15):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        a = [[rng.randrange(-30, 30) for _ in range(cols)] for _ in range(rows)]
        basis = kernel_rational(a)
        for v in basis:
            for row in a:
                assert sum(Fraction(x) * y for x, y in zip(row, v)) == 0
        # dimension check against exact elimination
        assert len(basis) == len(_kernel_fraction(a))


def test_kernel_rational_equals_fraction_elimination():
    """The same vectors as exact Fraction elimination, on matrices with zero
    rows, duplicate rows and entries beyond int64."""
    rng = random.Random(5)
    for _ in range(60):
        nrows = rng.randrange(1, 12)
        ncols = rng.randrange(1, 12)
        big = rng.choice([1, 2 ** 40, 2 ** 70])
        a = [[rng.choice([0, 0, 0, rng.randrange(-9, 10),
                          rng.randrange(-big, big + 1)])
              for _ in range(ncols)] for _ in range(nrows)]
        a[rng.randrange(nrows)] = [0] * ncols
        a.append(list(a[rng.randrange(nrows)]))
        a.append([-x for x in a[rng.randrange(nrows)]])
        assert kernel_rational(a) == _kernel_fraction(a)


def test_kernel_rational_beyond_int64():
    big = 2 ** 70 + 1
    cases = (
        [[big, 1, 0], [0, 0, 1]],
        [[big, 3, -(2 ** 65)], [5, big, 7]],
        [[big, -big, 0, 2], [1, 0, big, 0], [0, 0, 0, 0]],
    )
    for a in cases:
        basis = kernel_rational(a)
        ref = [[Fraction(x) for x in v] for v in _kernel_fraction(a)]
        assert basis == ref
        for v in basis:
            for row in a:
                assert sum(x * y for x, y in zip(row, v)) == 0


def test_kernel_rational_never_returns_a_wrong_candidate(monkeypatch):
    a = [[1, 2, 3, 4], [4, 5, 6, 7]]
    expected = kernel_rational(a)
    reconstruct = linalg._reconstruct_kernel
    calls = []
    fallbacks = []

    def corrupt(*args):
        basis = reconstruct(*args)
        calls.append(basis)
        if basis is not None and len(calls) <= bad_calls:
            basis[0][0] += 1
        return basis

    fallback = linalg._kernel_fraction

    def counting_fallback(a_int):
        fallbacks.append(a_int)
        return fallback(a_int)

    monkeypatch.setattr(linalg, "_reconstruct_kernel", corrupt)
    monkeypatch.setattr(linalg, "_kernel_fraction", counting_fallback)
    # a wrong first candidate: the next prime gives a checked one
    bad_calls = 1
    assert kernel_rational(a) == expected
    assert len(calls) == 2 and not fallbacks
    # every candidate wrong: the Fraction fallback answers
    calls.clear()
    bad_calls = len(_MODULAR_PRIMES)
    assert kernel_rational(a) == expected
    assert len(calls) > 1 and len(fallbacks) == 1


def test_kernel_over_q_returns_ints():
    field = Rationals()
    rows = [{0: Fraction(1, 2), 1: Fraction(-2, 3), 3: Fraction(5, 7)},
            {1: Fraction(3, 4), 2: Fraction(1, 6)},
            {0: Fraction(2 ** 70 + 1, 3), 3: Fraction(1, 2 ** 40)}]
    basis = kernel(*_coo(rows), 5, field)
    assert len(basis) == 2
    for v in basis:
        assert all(type(x) is int for x in v)
        assert _apply(rows, v, field) == [field.zero] * len(rows)


def test_field_generic_ops():
    f = PrimeField(5)
    rows = [[1, 2, 3], [4, 0, 1]]
    red, piv = rref_field(rows, f)
    assert piv == [0, 1]
    k = kernel_field(rows, 3, f)
    assert len(k) == 1
    sol = solve_field([[1, 2], [3, 4]], [1, 0], f)
    assert sol is not None
    assert (sol[0] + 2 * sol[1]) % 5 == 1
    assert (3 * sol[0] + 4 * sol[1]) % 5 == 0


def test_span_solver():
    f = Rationals()
    vecs = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    span = SpanSolver(vecs, f)
    coords = span.coords([Fraction(3), Fraction(2)])
    assert coords == [Fraction(1), Fraction(2)]


def test_poly_rank_and_kernel():
    ring = PolyRing(Rationals(), 2)
    x, y = ring.gen(0), ring.gen(1)
    rows = [[x, y], [ring.mul(x, x), ring.mul(x, y)]]
    assert poly_rank(rows, ring) == 1
    # kernel of the 1x2 matrix [x, y] is spanned by (y, -x) up to scale
    kern = poly_kernel([[x, y]], 2, ring)
    assert len(kern) == 1
    v = kern[0]
    lhs = ring.add(ring.mul(x, v[0]), ring.mul(y, v[1]))
    assert ring.is_zero(lhs)
    rows2 = [[x, ring.zero], [ring.zero, y]]
    assert poly_rank(rows2, ring) == 2
    assert poly_kernel(rows2, 2, ring) == []


def _batch_bareiss_rank(rows, ring):
    """Rank by fraction-free elimination of the whole matrix, column by
    column (the reference for the row-by-row echelon of independent_rows)."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    rank, prev = 0, ring.one
    for c in range(ncols):
        pr = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        piv = m[rank][c]
        for row in m[rank + 1:]:
            for j in range(ncols):
                if j != c:
                    num = ring.sub(ring.mul(piv, row[j]),
                                   ring.mul(row[c], m[rank][j]))
                    row[j] = ring.exact_div(num, prev) if num else {}
            row[c] = {}
        prev = piv
        rank += 1
    return rank


def test_independent_rows_is_the_greedy_choice():
    """Same selection as testing rank(selected + [v]) for each candidate."""
    rng = random.Random(3)
    for fld in (PrimeField(2), PrimeField(3), Rationals()):
        ring = PolyRing(fld, 2)
        gens = [ring.one, ring.gen(0), ring.gen(1)]
        for _ in range(25):
            ncols = rng.randrange(1, 5)

            def rand_vec():
                return tuple(ring.mul(rng.choice(gens), ring.lincomb(
                    [(fld.from_int(rng.randrange(-2, 3)), g) for g in gens]))
                    for _ in range(ncols))

            vecs = [rand_vec() for _ in range(rng.randrange(1, 4))]
            # dependent candidates: polynomial combinations of earlier ones
            for _ in range(rng.randrange(4)):
                a, b = rng.sample(vecs, 2) if len(vecs) > 1 else (vecs[0],) * 2
                ca, cb = rng.choice(gens), rng.choice(gens)
                vecs.append(tuple(ring.add(ring.mul(ca, x), ring.mul(cb, y))
                                  for x, y in zip(a, b)))
                vecs.append(rand_vec())
            expect = []
            for v in vecs:
                if _batch_bareiss_rank(expect + [v], ring) > len(expect):
                    expect.append(v)
            assert independent_rows(vecs, ring) == expect
            assert poly_rank(vecs, ring) == len(expect)


# -- the sparse API against the dense backends -------------------------------

SPARSE_FIELDS = (PrimeField(2), PrimeField(3), PrimeField(5), Rationals())


def _random_value(rng, field):
    if field.char:
        return rng.randrange(1, field.char)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7]))


def _sparse_cases(field, seed):
    """Sparse {column: value} systems, with empty and duplicate rows."""
    rng = random.Random(seed)
    for _ in range(25):
        ncols = rng.randrange(1, 9)
        rows = []
        for _ in range(rng.randrange(1, 9)):
            cols = rng.sample(range(ncols), rng.randrange(0, min(ncols, 4) + 1))
            rows.append({c: _random_value(rng, field) for c in cols})
        rows.append(dict(rows[0]))
        yield rows, ncols


def _coo(rows, rhs=(), ncols=None):
    """COO triplets of {column: value} rows, with rhs[r] (if given) at
    column ncols of row r."""
    entries = [(r, c, val) for r, row in enumerate(rows)
               for c, val in row.items()]
    entries += [(r, ncols, b) for r, b in enumerate(rhs)]
    return ([r for r, _, _ in entries], [c for _, c, _ in entries],
            [val for _, _, val in entries])


def _solve1(rows, rhs, ncols, field):
    """The one solution of rows * x = rhs from the batched solve, or None."""
    sols = solve(*_coo(rows, rhs, ncols), ncols, 1, field)
    return None if sols is None else sols[0]


def _dense(rows, ncols, field):
    return [[row.get(c, field.zero) for c in range(ncols)] for row in rows]


def _apply(rows, x, field):
    out = []
    for row in rows:
        acc = field.zero
        for c, val in row.items():
            acc = field.add(acc, field.mul(val, x[c]))
        out.append(acc)
    return out


def test_sparse_kernel_matches_dense_backends():
    for k, field in enumerate(SPARSE_FIELDS):
        for rows, ncols in _sparse_cases(field, 10 + k):
            basis = kernel(*_coo(rows), ncols, field)
            dense = _dense(rows, ncols, field)
            if field.char:
                ref = kernel_mod_p(np.array(dense, dtype=np.int64), field.char)
                assert basis == [v.tolist() for v in ref]
                assert all(type(x) is int for v in basis for x in v)
                continue
            # over Q each vector is the RREF-normalized one scaled to integers
            ref = kernel_field(dense, ncols, field)
            assert len(basis) == len(ref)
            for v, r in zip(basis, ref):
                scale = v[r.index(field.one)]
                assert scale > 0
                assert all(type(x) is int for x in v)
                assert v == [x * scale for x in r]
            for v in basis:
                assert _apply(rows, v, field) == [field.zero] * len(rows)


def test_sparse_rank_and_solve_match_dense_backends():
    for k, field in enumerate(SPARSE_FIELDS):
        rng = random.Random(20 + k)
        for rows, ncols in _sparse_cases(field, 30 + k):
            dense = _dense(rows, ncols, field)
            if field.char:
                a = np.array(dense, dtype=np.int64)
                assert (rank(*_coo(rows), ncols, field)
                        == rank_mod_p(a, field.char))
            else:
                assert (rank(*_coo(rows), ncols, field)
                        == len(rref_field(dense, field)[1]))
            x0 = [_random_value(rng, field) for _ in range(ncols)]
            for rhs in (_apply(rows, x0, field),
                        [_random_value(rng, field) for _ in rows]):
                x = _solve1(rows, rhs, ncols, field)
                if field.char:
                    ref = solve_mod_p(a, np.array(rhs), field.char)
                    ref = None if ref is None else ref.tolist()
                else:
                    ref = solve_field(dense, rhs, field)
                assert x == ref
                if x is not None:
                    assert _apply(rows, x, field) == rhs
            assert (_solve1(rows, _apply(rows, x0, field), ncols, field)
                    is not None)


def test_sparse_api_ignores_row_order():
    for k, field in enumerate(SPARSE_FIELDS):
        rng = random.Random(40 + k)
        for rows, ncols in _sparse_cases(field, 50 + k):
            x0 = [_random_value(rng, field) for _ in range(ncols)]
            rhs = _apply(rows, x0, field)
            order = list(range(len(rows)))
            rng.shuffle(order)
            shuffled = [rows[i] for i in order]
            assert (kernel(*_coo(shuffled), ncols, field)
                    == kernel(*_coo(rows), ncols, field))
            assert (_solve1(shuffled, [rhs[i] for i in order], ncols, field)
                    == _solve1(rows, rhs, ncols, field))


def test_sparse_api_edge_cases():
    for field in SPARSE_FIELDS:
        one, zero = field.one, field.zero
        # no rows, or only empty ones: the whole space
        unit = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
        assert kernel([], [], [], 3, field) == unit
        assert kernel(*_coo([{}, {}]), 3, field) == unit
        assert rank([], [], [], 3, field) == 0
        assert _solve1([], [], 3, field) == [zero] * 3
        # no columns
        assert kernel([], [], [], 0, field) == []
        assert rank(*_coo([{}]), 0, field) == 0
        assert _solve1([{}], [zero], 0, field) == []
        assert _solve1([{}], [one], 0, field) is None
        # duplicate rows count once
        row = {0: one, 2: field.neg(one)}
        assert rank(*_coo([row, dict(row), dict(row)]), 3, field) == 1
        assert (kernel(*_coo([row, dict(row)]), 3, field)
                == kernel(*_coo([row]), 3, field))
        # a row holding only a right-hand side is inconsistent
        assert _solve1([{0: one}, {}], [one, one], 2, field) is None
        assert _solve1([{0: one}, {}], [one, zero], 2, field) == [one, zero]
        # duplicate entries are summed, and entries summing to zero vanish
        two = field.add(one, one)
        assert kernel([0, 0], [1, 1], [one, field.neg(one)], 3, field) == unit
        assert (rank([0, 0, 1], [0, 0, 1], [one, one, one], 2, field)
                == (1 if field.is_zero(two) else 2))


def test_solve_several_right_hand_sides():
    for field in SPARSE_FIELDS:
        one, zero = field.one, field.zero
        # A = [[1, 1, 0], [0, 1, 1], [1, 0, 1]] has rank 2 over GF(2) only
        rows = [{0: one, 1: one}, {1: one, 2: one}, {0: one, 2: one}]
        assert solve(*_coo(rows), 3, 0, field) == []
        # [A | B]: column 3 + k holds b_k
        rhss = [[one, one, zero], [zero, zero, zero], [zero, one, one]]
        r, c, v = _coo(rows)
        for k, b in enumerate(rhss):
            for i, val in enumerate(b):
                if val != zero:
                    r, c, v = r + [i], c + [3 + k], v + [val]
        sols = solve(r, c, v, 3, len(rhss), field)
        assert len(sols) == len(rhss)
        for x, b in zip(sols, rhss):
            assert _apply(rows, x, field) == b
            assert x == _solve1(rows, b, 3, field)
        # b = e_0 lies outside the span over GF(2), so the whole call fails
        sols = solve(r + [0], c + [6], v + [one], 3, 4, field)
        if field.char == 2:
            assert sols is None
        else:
            assert _apply(rows, sols[3], field) == [one, zero, zero]
