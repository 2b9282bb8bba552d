"""hom_space against independent oracles, and the batched solve_in_basis.

Every basis morphism is checked with polynomial arithmetic alone
(`PolyRing.mat_mul`, `mat_vec` and fraction-free `poly_rank`), its
independence with dense `rref_field`, and the basis sizes against counts
recorded from the dict-based assembly that the integer-array assembly
replaced.  B2-sc words through the affine reflection s2 carry
denominators 2 and 4 in their action matrices.  The label equations that
`hom_space` leaves out are checked by comparing its bases with those of the
system that has the label equations of every label of M.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest

from affkl import homs
from affkl.bimodule import b_object, bott_samelson, f_object
from affkl.fields import PrimeField, Rationals
from affkl.homs import SlotMap, hom_space, monomials_of_degree, solve_in_basis
from affkl.linalg import poly_rank, rref_field
from affkl.polys import PolyRing
from affkl.realization import build_realization
from affkl.rootdata import build_root_datum
from affkl.weyl import simple_reflections, translation, wid

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


def _full_family_bases(m, n):
    """hom_space in every degree of the window, and the same with label
    equations for every label of M, shared with a label of N or not."""
    window = m.wordlen + n.wordlen + 2
    degrees = range(-window, window + 1)
    bases = [hom_space(m, n, d) for d in degrees]
    with mock.patch.object(homs, "_shared_labels",
                           lambda m, n: range(len(m.labels))):
        return bases, [hom_space(m, n, d) for d in degrees]


# (datum, p, Bott-Samelson words besides F_e, ordered pairs of the objects
# with a label of M that shares its class with another label of N)
DIFF_CASES = [("GL2", 2, [(0,), (1,), (0, 1), (1, 0), (0, 1, 0)], 29),
              ("GL2", 3, [(0,), (1,), (0, 1), (1, 0, 1)], 18),
              ("GL3", 2, [(0,), (2,), (0, 2), (2, 1), (0, 2, 0)], 4),
              ("A2-sc", 0, [(0,), (2,), (1, 2), (0, 2, 0)], 2)]


@pytest.mark.parametrize("name, p, words, nshared", DIFF_CASES,
                         ids=[f"{name}-p{p}" for name, p, _, _ in DIFF_CASES])
def test_hom_space_matches_full_label_family(name, p, words, nshared):
    datum = build_root_datum(name)
    real = build_realization(datum, p)
    refls = simple_reflections(datum, conj_search=False)
    objs = [f_object(real, wid(datum))] + [
        bott_samelson(real, wid(datum), [refls[i] for i in w]) for w in words]
    shared = 0
    for m in objs:
        for n in objs:
            shared += bool(homs._shared_labels(m, n))
            bases, full = _full_family_bases(m, n)
            assert bases == full
    assert shared == nshared
    # F_e -> B_s and B_s -> F_e: the label s of B_s is no label of F_e
    b_s = objs[1]
    assert homs._shared_labels(b_s, objs[0]) == []
    assert sum(map(len, _full_family_bases(b_s, objs[0])[0])) > 0


def test_label_outside_n_but_in_its_class():
    # t(1, 1) is central in GL2: F_e and F_t(1,1) have the same right
    # action, and only the label equations (c = every unit vector) kill P
    datum = build_root_datum("GL2")
    real = build_realization(datum, 2)
    m = f_object(real, wid(datum))
    n = f_object(real, translation(datum, (1, 1)))
    assert homs._shared_labels(m, n) == [0]
    bases, full = _full_family_bases(m, n)
    assert bases == full and not any(bases)


def test_label_classes_keyed_by_the_action_over_the_field():
    # over GF(2) the reflection of A1-sc acts on t as the identity, so e and
    # s share a class; keying classes by the integral finite part instead
    # drops equations that are needed (232 dimensions in all instead of 213)
    datum = build_root_datum("A1-sc")
    real = build_realization(datum, 2)
    refls = simple_reflections(datum, conj_search=False)
    s0, s1 = refls
    assert s1.as_element.fin != wid(datum).fin
    assert (real.fin_action_matrix(s1.as_element)
            == real.fin_action_matrix(wid(datum)))
    objs = [f_object(real, wid(datum)), f_object(real, s1.as_element),
            b_object(real, s0), b_object(real, s1),
            bott_samelson(real, wid(datum), [s0, s1]),
            bott_samelson(real, wid(datum), [s1, s1])]
    total = 0
    for m in objs:
        for n in objs:
            bases, full = _full_family_bases(m, n)
            assert bases == full
            total += sum(map(len, bases))
    assert total == 213


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
