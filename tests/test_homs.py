"""hom_space against an independent oracle, and the batched solve_in_basis.

Every basis morphism is checked with polynomial arithmetic alone
(`PolyRing.mat_mul`, `mat_vec` and fraction-free `poly_rank`), its
independence with dense `rref_field`, and the basis sizes against counts
recorded from the dict-based assembly that the integer-array assembly
replaced.  B2-sc words through the affine reflection s2 carry
denominators 2 and 4 in their action matrices.
"""

import random
from fractions import Fraction

import pytest

from affkl.bimodule import bott_samelson
from affkl.fields import PrimeField, Rationals
from affkl.homs import SlotMap, hom_space, monomials_of_degree, solve_in_basis
from affkl.linalg import poly_rank, rref_field
from affkl.polys import PolyRing
from affkl.realization import build_realization
from affkl.rootdata import build_root_datum
from affkl.weyl import simple_reflections, wid

# (word of M, word of N) -> (lowest degree d0 with a morphism, dim Hom^d for
# d = d0, d0 + 2, ... up to the solver window); every other degree is 0
GL2_COUNTS = {
    ((), ()): (0, (1, 2)),
    ((), (0,)): (1, (1, 2)),
    ((), (1,)): (1, (1, 2)),
    ((), (0, 1)): (2, (1, 2)),
    ((), (1, 0)): (2, (1, 2)),
    ((0,), ()): (1, (1, 2)),
    ((0,), (0,)): (0, (1, 3, 5)),
    ((0,), (1,)): (2, (1, 2)),
    ((0,), (0, 1)): (1, (1, 3, 5)),
    ((0,), (1, 0)): (1, (1, 3, 5)),
    ((1,), ()): (1, (1, 2)),
    ((1,), (0,)): (2, (1, 2)),
    ((1,), (1,)): (0, (1, 3, 5)),
    ((1,), (0, 1)): (1, (1, 3, 5)),
    ((1,), (1, 0)): (1, (1, 3, 5)),
    ((0, 1), ()): (2, (1, 2)),
    ((0, 1), (0,)): (1, (1, 3, 5)),
    ((0, 1), (1,)): (1, (1, 3, 5)),
    ((1, 0), ()): (2, (1, 2)),
    ((1, 0), (0,)): (1, (1, 3, 5)),
    ((1, 0), (1,)): (1, (1, 3, 5)),
}
RANK3_COUNTS = {
    ((), ()): (0, (1, 2)),
    ((), (0,)): (1, (1, 2)),
    ((), (2,)): (1, (1, 2)),
    ((), (1, 2)): (2, (1, 2)),
    ((), (2, 0)): (2, (1, 2)),
    ((), (2, 2)): (0, (1, 3, 5)),
    ((0,), ()): (1, (1, 2)),
    ((0,), (0,)): (0, (1, 3, 5)),
    ((0,), (2,)): (2, (1, 2)),
    ((0,), (1, 2)): (3, (1, 2)),
    ((0,), (2, 0)): (1, (1, 3, 5)),
    ((0,), (2, 2)): (1, (1, 3, 5)),
    ((2,), ()): (1, (1, 2)),
    ((2,), (0,)): (2, (1, 2)),
    ((2,), (2,)): (0, (1, 3, 5)),
    ((2,), (1, 2)): (1, (1, 3, 5)),
    ((2,), (2, 0)): (1, (1, 3, 5)),
    ((2,), (2, 2)): (-1, (1, 4, 8, 12)),
    ((1, 2), ()): (2, (1, 2)),
    ((1, 2), (0,)): (3, (1, 2)),
    ((1, 2), (2,)): (1, (1, 3, 5)),
    ((2, 0), ()): (2, (1, 2)),
    ((2, 0), (0,)): (1, (1, 3, 5)),
    ((2, 0), (2,)): (1, (1, 3, 5)),
    ((2, 2), ()): (0, (1, 3, 5)),
    ((2, 2), (0,)): (1, (1, 3, 5)),
    ((2, 2), (2,)): (-1, (1, 4, 8, 12)),
}
CASES = [("GL2", 2, GL2_COUNTS), ("GL2", 3, GL2_COUNTS),
         ("A2-sc", 0, RANK3_COUNTS), ("B2-sc", 0, RANK3_COUNTS)]


def _check_morphisms(m, n, degree, basis):
    ring = m.real.ring
    for p in basis:
        for a, b in zip(m.act, n.act):
            assert ring.mat_mul(p, a) == ring.mat_mul(b, p)
        # P maps each labeled component of M into the same component of N
        for w, xs in m.labels:
            target = [list(v) for v in n.label_map().get(w, ())]
            for x in xs:
                image = ring.mat_vec(p, x)
                assert poly_rank(target + [image], ring) == len(target)
    slots = SlotMap(ring, n.degrees, m.degrees, degree)
    flat = [slots.flatten(p) for p in basis]
    assert len(rref_field(flat, ring.field)[1]) == len(basis)


@pytest.mark.parametrize("name, p, counts", CASES,
                         ids=[f"{name}-p{p}" for name, p, _ in CASES])
def test_hom_space_against_oracle(name, p, counts):
    datum = build_root_datum(name)
    real = build_realization(datum, p)
    refls = simple_reflections(datum, conj_search=False)
    for (wx, wy), (low, dims) in counts.items():
        m = bott_samelson(real, wid(datum), [refls[i] for i in wx])
        n = bott_samelson(real, wid(datum), [refls[i] for i in wy])
        window = m.wordlen + n.wordlen + 2
        for d in range(-window, window + 1):
            basis = hom_space(m, n, d)
            step, odd = divmod(d - low, 2)
            expected = dims[step] if step >= 0 and not odd else 0
            assert len(basis) == expected, (wx, wy, d)
            _check_morphisms(m, n, d, basis)


def _random_poly(ring, rng, degree):
    fld = ring.field
    out = {}
    for mono in monomials_of_degree(ring.nvars, degree // 2):
        c = (Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
             if not fld.char else rng.randrange(fld.char))
        if not fld.is_zero(c):
            out[mono] = c
    return out


def _combine(ring, columns, y):
    out = []
    for i in range(len(columns[0])):
        acc = {}
        for col, yl in zip(columns, y):
            if col[i] and yl:
                acc = ring.add(acc, ring.mul(col[i], yl))
        out.append(acc)
    return out


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), Rationals()],
                         ids=["GF2", "GF3", "Q"])
def test_solve_in_basis_several_right_hand_sides(field):
    ring = PolyRing(field, 2)
    rng = random.Random(11)
    coef = Fraction(3, 4) if not field.char else field.one
    # independent columns of degrees 0 and 2 in R^3
    columns = [[ring.one, ring.one, {}], [ring.gen(0, coef), {}, ring.gen(1)]]
    degrees = [0, 2]
    ys = [[_random_poly(ring, rng, 4), _random_poly(ring, rng, 2)]
          for _ in range(4)]
    rhss = [_combine(ring, columns, y) for y in ys]
    sols = solve_in_basis(columns, degrees, rhss, 4, ring)
    assert sols == ys
    for y, rhs in zip(sols, rhss):
        assert _combine(ring, columns, y) == rhs
        assert solve_in_basis(columns, degrees, [rhs], 4, ring) == [y]
    # (x0^2, 0, 0) is not a combination of the columns
    outside = [ring.mul(ring.gen(0), ring.gen(0)), {}, {}]
    assert solve_in_basis(columns, degrees, [outside], 4, ring) is None
    assert solve_in_basis(columns, degrees, rhss[:2] + [outside] + rhss[2:],
                          4, ring) is None
