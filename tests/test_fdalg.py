import subprocess
import sys
from fractions import Fraction

import pytest

from affkl import upoly
from affkl.errors import SolverError, SplitOverExtensionNeeded
from affkl.fdalg import (
    FDAlgebra, SpanSolverSafe, _charpoly, _coprime_components)
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
    d, s, t = upoly.xgcd(f, [1, 1], [1, 0, 1])
    lhs = upoly.add(f, upoly.mul(f, s, [1, 1]), upoly.mul(f, t, [1, 0, 1]))
    assert lhs == d


def _poly_product(field, polys):
    out = [field.one]
    for g in polys:
        out = upoly.mul(field, out, g)
    return out


def test_coprime_components_gf2():
    f = PrimeField(2)
    # x^2 + x = x (x + 1); x^2; x^2 + x + 1 has no root in GF(2)
    assert _coprime_components(f, [0, 1, 1]) == [[0, 1], [1, 1]]
    assert _coprime_components(f, [0, 0, 1]) == [[0, 0, 1]]
    assert _coprime_components(f, [1, 1, 1]) == [[1, 1, 1]]


def test_coprime_components_gf3():
    f = PrimeField(3)
    x, x_minus_2_sq, x2_plus_1 = [0, 1], [1, 2, 1], [1, 0, 1]
    mu = _poly_product(f, [x, x_minus_2_sq, x2_plus_1])
    assert _coprime_components(f, mu) == [x, x_minus_2_sq, x2_plus_1]


def test_coprime_components_over_q():
    q = Rationals()
    assert _coprime_components(q, [0, -1, 1]) == [[0, 1], [-1, 1]]
    half = Fraction(1, 2)
    parts = [[3, 1], [-half, 1], [2, 0, 1]]
    mu = _poly_product(q, [parts[1], parts[0], parts[2]])
    assert _coprime_components(q, mu) == parts


def test_span_solver_safe_rejects_dependent_family():
    field = PrimeField(3)
    span = SpanSolverSafe([[1, 0, 1], [0, 1, 1]], field)
    assert span.coords([1, 2, 0]) == [1, 2]
    assert span.coords([0, 0, 1]) is None
    with pytest.raises(SolverError):
        SpanSolverSafe([[1, 0, 1], [0, 1, 1], [1, 1, 2]], field)


def test_end0_splits_over_q_without_sympy(child_env):
    # A2-sc at p=0 up to length 3 splits three End^0 algebras over Q
    code = (
        "import sys\n"
        "import affkl, affkl.cache, affkl.cli\n"
        "from affkl import build_root_datum\n"
        "from affkl.soergel import PCanTable\n"
        "from affkl.weyl import enumerate_elements\n"
        "datum = build_root_datum('A2-sc')\n"
        "table = PCanTable(datum, 0)\n"
        "for u in enumerate_elements(datum, 3):\n"
        "    table.ensure(u)\n"
        "print('sympy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
