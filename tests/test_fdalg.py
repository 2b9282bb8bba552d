from fractions import Fraction

import pytest

from affkl import upoly
from affkl.errors import SolverError, SplitOverExtensionNeeded
from affkl.fdalg import FDAlgebra, SpanSolverSafe, _charpoly
from affkl.fields import PrimeField, Rationals


def _algebra_from_mats(field, mats):
    """Structure constants for the span of the given matrices (must be closed)."""
    from affkl.linalg import SpanSolver

    flat = [[m[i][j] for i in range(len(m)) for j in range(len(m))]
            for m in mats]
    span = SpanSolver(flat, field)
    n = len(mats[0])

    def matmul(a, b):
        return [[_dot(field, a, b, i, j, n) for j in range(n)] for i in range(n)]

    table = []
    for a in mats:
        row = []
        for b in mats:
            prod = matmul(a, b)
            coords = span.coords([prod[i][j] for i in range(n) for j in range(n)])
            assert coords is not None
            row.append(coords)
        table.append(row)
    ident = [[field.one if i == j else field.zero for j in range(n)]
             for i in range(n)]
    unit = span.coords([ident[i][j] for i in range(n) for j in range(n)])
    assert unit is not None
    return FDAlgebra(field, table, unit)


def _dot(field, a, b, i, j, n):
    total = field.zero
    for k in range(n):
        total = field.add(total, field.mul(a[i][k], b[k][j]))
    return total


def _full_matrix_algebra(field, n):
    mats = []
    for i in range(n):
        for j in range(n):
            m = [[field.zero] * n for _ in range(n)]
            m[i][j] = field.one
            mats.append(m)
    return _algebra_from_mats(field, mats)


def _dual_numbers(field):
    # k[x]/x^2 as 2x2 matrices [[a, b], [0, a]]
    one = [[field.one, field.zero], [field.zero, field.one]]
    x = [[field.zero, field.one], [field.zero, field.zero]]
    return _algebra_from_mats(field, [one, x])


def _upper_triangular(field):
    mats = []
    for (i, j) in ((0, 0), (0, 1), (1, 1)):
        m = [[field.zero] * 2 for _ in range(2)]
        m[i][j] = field.one
        mats.append(m)
    return _algebra_from_mats(field, mats)


def _group_algebra_cp(p):
    # F_p[C_p]: regular representation of the cyclic shift
    field = PrimeField(p)
    shift = [[field.one if (i - j) % p == 1 else field.zero for j in range(p)]
             for i in range(p)]
    mats = []
    cur = [[field.one if i == j else field.zero for j in range(p)]
           for i in range(p)]
    for _ in range(p):
        mats.append(cur)
        cur = [[_dot(field, cur, shift, i, j, p) for j in range(p)]
               for i in range(p)]
    return _algebra_from_mats(field, mats)


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(3)])
def test_radical_dual_numbers(field):
    alg = _dual_numbers(field)
    rad = alg.radical()
    assert len(rad) == 1
    # the radical element squares to zero
    v = rad[0]
    assert alg.is_zero_vec(alg.mul(v, v))


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(3)])
def test_radical_matrix_algebra(field):
    alg = _full_matrix_algebra(field, 2)
    assert alg.radical() == []


def test_radical_group_algebra_modular():
    # F_p[C_p] is local: radical has codimension 1
    for p in (2, 3):
        alg = _group_algebra_cp(p)
        rad = alg.radical()
        assert len(rad) == p - 1


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(5)])
def test_radical_upper_triangular(field):
    alg = _upper_triangular(field)
    assert len(alg.radical()) == 1


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(3)])
def test_idempotents_matrix_algebra(field):
    alg = _full_matrix_algebra(field, 2)
    idems = alg.complete_primitive_idempotents()
    assert len(idems) == 2
    total = [field.zero] * alg.dim
    for e in idems:
        assert alg.mul(e, e) == e
        total = alg.add(total, e)
    assert total == list(alg.unit)
    assert alg.is_zero_vec(alg.mul(idems[0], idems[1]))


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2)])
def test_idempotents_upper_triangular(field):
    alg = _upper_triangular(field)
    idems = alg.complete_primitive_idempotents()
    assert len(idems) == 2


def test_idempotents_local_algebra():
    for p in (2, 3):
        alg = _group_algebra_cp(p)
        idems = alg.complete_primitive_idempotents()
        assert len(idems) == 1
        assert idems[0] == list(alg.unit)


def test_extension_detected():
    # GF(4) as a 2-dim F_2-algebra: the block center is a proper extension
    f2 = PrimeField(2)
    one = [[f2.one, f2.zero], [f2.zero, f2.one]]
    # companion matrix of x^2 + x + 1
    g = [[f2.zero, f2.one], [f2.one, f2.one]]
    alg = _algebra_from_mats(f2, [one, g])
    with pytest.raises(SplitOverExtensionNeeded) as exc:
        alg.complete_primitive_idempotents()
    assert exc.value.degree == 2


def test_charpoly():
    f = Rationals()
    mat = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
    # (t-2)(t-3) = t^2 - 5t + 6
    assert _charpoly(mat, f) == [Fraction(6), Fraction(-5), Fraction(1)]
    fp = PrimeField(5)
    mat = [[1, 2, 0], [0, 1, 1], [1, 0, 0]]
    coeffs = _charpoly(mat, fp)
    assert len(coeffs) == 4 and coeffs[-1] == 1
    # Cayley-Hamilton check
    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(3)) % 5
                 for j in range(3)] for i in range(3)]
    acc = [[0] * 3 for _ in range(3)]
    power = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for c in coeffs:
        acc = [[(acc[i][j] + c * power[i][j]) % 5 for j in range(3)]
               for i in range(3)]
        power = matmul(power, mat)
    assert all(acc[i][j] == 0 for i in range(3) for j in range(3))


def test_upoly_helpers():
    f = PrimeField(3)
    a = [1, 0, 1]          # 1 + x^2
    b = [2, 1]             # 2 + x
    q, r = upoly.divmod_poly(f, a, b)
    # a = q b + r
    recon = upoly.add(f, upoly.mul(f, q, b), r)
    assert recon == a
    g = upoly.gcd(f, upoly.mul(f, a, b), b)
    assert g == upoly.smul(f, f.inv(b[-1]), b)
    d, s, t = upoly.xgcd(f, [1, 1], [1, 0, 1])
    lhs = upoly.add(f, upoly.mul(f, s, [1, 1]), upoly.mul(f, t, [1, 0, 1]))
    assert lhs == d


def test_squarefree_decomposition_char_p():
    f = PrimeField(2)
    # x^2 (x+1): squarefree parts x (mult 2), x+1 (mult 1)
    poly = upoly.mul(f, [0, 0, 1], [1, 1])
    parts = upoly.squarefree_decomposition(f, poly)
    assert sorted((tuple(g), m) for g, m in parts) == [((0, 1), 2), ((1, 1), 1)]
    # x^2 + 1 = (x+1)^2 over F_2: derivative vanishes
    parts = upoly.squarefree_decomposition(f, [1, 0, 1])
    assert parts == [([1, 1], 2)]


def test_frobenius_factor_split():
    f = PrimeField(2)
    # (x^2+x+1)(x+1): squarefree with two irreducible factors
    g = upoly.mul(f, [1, 1, 1], [1, 1])
    d = upoly.frobenius_factor_split(f, g)
    assert d is not None
    q, r = upoly.divmod_poly(f, g, d)
    assert not r
    # irreducible polynomial does not split
    assert upoly.frobenius_factor_split(f, [1, 1, 1]) is None


def test_span_solver_safe_rejects_dependent_family():
    field = PrimeField(3)
    span = SpanSolverSafe([[1, 0, 1], [0, 1, 1]], field)
    assert span.coords([1, 2, 0]) == [1, 2]
    assert span.coords([0, 0, 1]) is None
    with pytest.raises(SolverError):
        SpanSolverSafe([[1, 0, 1], [0, 1, 1], [1, 1, 2]], field)
