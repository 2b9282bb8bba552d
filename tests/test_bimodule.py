from fractions import Fraction

import pytest

from affkl.bimodule import b_object, bott_samelson, character, f_object, tensor
from affkl.errors import (
    DegreeOutOfWindow,
    NoDelta,
    NotLengthZero,
    RealizationMismatch,
    UnknownCharacter,
)
from affkl.hecke import mult as hecke_mult, pairing as hecke_pairing, unit
from affkl.homs import graded_hom_dims, hom_space
from affkl.laurent import LaurentPoly
from affkl.realization import build_realization
from affkl.rootdata import build_root_datum
from affkl.weyl import omega_factorize, simple_reflections, translation, wid


@pytest.fixture(scope="module")
def gl2_real(gl2):
    return build_realization(gl2, 0)


@pytest.fixture(scope="module")
def gl2_refls(gl2):
    return simple_reflections(gl2, conj_search=False)


def test_realization_gl2(gl2, gl2_real):
    # delta for the finite reflection is e1; coroot functional is x1 - x2
    real = gl2_real
    assert real.delta_vec[0] == (Fraction(1), Fraction(0))
    assert real.cov_vec[0] == (Fraction(1), Fraction(-1))
    # affine reflection carries the negatives
    assert real.cov_vec[1] == (Fraction(-1), Fraction(1))
    assert real.pair(real.delta_vec[1], real.cov_vec[1]) == Fraction(1)


def test_realization_mod2(gl2):
    real = build_realization(gl2, 2)
    assert real.delta_vec[0] == (1, 0)


def test_no_delta_for_torsion():
    adj = build_root_datum("A1-adj")
    with pytest.raises(NoDelta):
        build_realization(adj, 2)
    build_realization(adj, 3)   # fine at p = 3


def test_reflection_action_on_t(gl2, gl2_real, gl2_refls):
    real = gl2_real
    ring = real.ring
    for s in gl2_refls:
        idx = s.index
        mat = real.fin_action_matrix(s.as_element)
        for g in range(real.dim):
            img = [mat[i][g] for i in range(real.dim)]
            # xi - <xi, cov> alpha
            c = real.cov_vec[idx][g]
            expect = [real.field.sub(
                real.field.one if i == g else real.field.zero,
                real.field.mul(c, real.alpha_vec[idx][i]))
                for i in range(real.dim)]
            assert img == expect


def test_f_objects(gl2, gl2_real):
    e = wid(gl2)
    fe = f_object(gl2_real, e)
    assert fe.degrees == (0,)
    assert character(fe) == unit(gl2)
    t = translation(gl2, (1, -1))
    ft = f_object(gl2_real, t)
    # translations act trivially on R
    ring = gl2_real.ring
    for g in range(gl2_real.dim):
        assert ft.act[g][0][0] == ring.gen(g)
    y = translation(gl2, (0, 1))
    prod = tensor(ft, f_object(gl2_real, y))
    assert [w for w, _ in prod.labels] == [t * y]
    prod.validate()


def test_b_object(gl2_real, gl2_refls):
    for s in gl2_refls:
        b = b_object(gl2_real, s)
        assert b.degrees == (-1, 1)
        assert b.graded_rank() == LaurentPoly({-1: 1, 1: 1})
        b.validate()
        labels = dict((w.canonical_str(), len(v)) for w, v in b.labels)
        assert labels == {"e;0,0": 1, s.as_element.canonical_str(): 1}


def test_character_multiplicative(gl2, gl2_real, gl2_refls):
    sa, s0 = gl2_refls
    bs = b_object(gl2_real, sa)
    m = tensor(bs, b_object(gl2_real, s0))
    assert character(m) == hecke_mult(character(bs),
                                      character(b_object(gl2_real, s0)))
    with pytest.raises(UnknownCharacter):
        character(tensor(f_object(gl2_real, translation(gl2, (1, 0))), bs))


def test_conjugation_matches_b_object(gl2, gl2_real, gl2_refls):
    # F_omega * B_s * F_omega^{-1} has the labels of B_{omega s omega^{-1}}
    sa, s0 = gl2_refls
    om = omega_factorize(translation(gl2, (1, 0)))[0]
    conj = tensor(tensor(f_object(gl2_real, om), b_object(gl2_real, sa)),
                  f_object(gl2_real, om.inverse()))
    conj.validate()
    expected = {wid(gl2), om * sa.as_element * om.inverse()}
    assert {w for w, _ in conj.labels} == expected
    assert om * sa.as_element * om.inverse() == s0.as_element


def test_witness_conjugation_iso(gl2, gl2_real):
    # the affine generator is isomorphic to the conjugate of its witness
    from affkl.soergel import is_shifted_iso

    refls = simple_reflections(gl2, conj_search=True)
    s0 = refls[1]
    sp, w = s0.conj_data
    conj = tensor(tensor(f_object(gl2_real, w), b_object(gl2_real, sp)),
                  f_object(gl2_real, w.inverse()))
    direct = b_object(gl2_real, s0)
    assert is_shifted_iso(conj, direct, 0)


def test_bott_samelson(gl2, gl2_real, gl2_refls):
    sa = gl2_refls[0]
    e = wid(gl2)
    bs0 = bott_samelson(gl2_real, e, [], 0)
    assert bs0.degrees == (0,)
    bs1 = bott_samelson(gl2_real, e, [sa], 0)
    assert bs1.degrees == (-1, 1)
    m = bott_samelson(gl2_real, e, [sa, sa], 0)
    assert sorted(m.degrees) == [-2, 0, 0, 2]
    assert character(m) == hecke_mult(character(bs1), character(bs1))
    shifted = bott_samelson(gl2_real, e, [sa], 2)
    assert shifted.degrees == (-3, -1)
    assert character(shifted) == character(bs1).scale(LaurentPoly.v(-2))
    with pytest.raises(NotLengthZero):
        bott_samelson(gl2_real, sa.as_element, [], 0)


def test_tensor_realization_mismatch(gl2, gl2_real, gl2_refls):
    other = build_realization(gl2, 2)
    with pytest.raises(RealizationMismatch):
        tensor(b_object(gl2_real, gl2_refls[0]),
               b_object(other, gl2_refls[0]))


def test_hom_examples(gl2, gl2_real, gl2_refls):
    sa = gl2_refls[0]
    b = b_object(gl2_real, sa)
    fe = f_object(gl2_real, wid(gl2))
    assert len(hom_space(b, b, 0)) == 1
    assert len(hom_space(fe, b, 0)) == 0
    assert len(hom_space(fe, b, 1)) == 1
    ft = f_object(gl2_real, translation(gl2, (1, -1)))
    # distinct labels force zero in all degrees of the window
    for d in range(-2, 3):
        assert hom_space(fe, ft, d) == []
    with pytest.raises(DegreeOutOfWindow):
        hom_space(b, b, 9)


def test_hom_formula_small(gl2, gl2_refls):
    # graded (reduced) Hom dimensions match the standard-basis pairing
    for char in (0, 2):
        real = build_realization(gl2, char)
        sa, s0 = simple_reflections(gl2, conj_search=False)
        e = wid(gl2)
        words = [[], [sa], [s0], [sa, s0]]
        for wx in words:
            for wy in words:
                if len(wx) + len(wy) > 3:
                    continue
                m = bott_samelson(real, e, wx, 0)
                n = bott_samelson(real, e, wy, 0)
                assert graded_hom_dims(m, n) == hecke_pairing(
                    character(m), character(n)), (char, wx, wy)


def _ref_tensor(m, n):
    """act and labels of m * n, each entry evaluated monomial by monomial:
    the powers of m's action matrices are rebuilt for every entry of n's
    action and every generator, and each monomial adds a scaled copy."""
    ring = m.real.ring
    nm, nn = m.rank, n.rank

    def mat_mul(a, b):
        out = [[{} for _ in b[0]] for _ in a]
        for i, row in enumerate(a):
            for t, x in enumerate(row):
                for j, y in enumerate(b[t]):
                    out[i][j] = ring.add(out[i][j], ring.mul(x, y))
        return out

    def eval_poly(g):
        ident = [[ring.one if i == j else {} for j in range(nm)]
                 for i in range(nm)]
        out = [[{} for _ in range(nm)] for _ in range(nm)]
        for mono, c in g.items():
            term = ident
            for i, e in enumerate(mono):
                for _ in range(e):
                    term = mat_mul(term, m.act[i])
            out = [[ring.add(x, ring.smul(c, y)) for x, y in zip(ro, rt)]
                   for ro, rt in zip(out, term)]
        return out

    acts = []
    for g in range(m.real.dim):
        big = [[{} for _ in range(nm * nn)] for _ in range(nm * nn)]
        for l in range(nn):
            for j in range(nn):
                block = eval_poly(n.act[g][l][j])
                for k in range(nm):
                    for i in range(nm):
                        big[k * nn + l][i * nn + j] = block[k][i]
        acts.append(big)
    labels = {}
    for u, xs in m.labels:
        twist = m.real.fin_action_matrix(u)
        for v, ys in n.labels:
            for x in xs:
                for y in ys:
                    ty = [ring.apply_linear(yj, twist) for yj in y]
                    labels.setdefault(u * v, []).append(tuple(
                        ring.mul(x[i], ty[j])
                        for i in range(nm) for j in range(nn)))
    return acts, {w: tuple(vs) for w, vs in labels.items()}


@pytest.mark.parametrize("name, char", [("GL2", 2), ("GL2", 3), ("GL3", 2),
                                        ("A2-sc", 0), ("B2-sc", 0)])
def test_tensor_matches_entrywise_reference(name, char):
    datum = build_root_datum(name)
    real = build_realization(datum, char)
    refls = simple_reflections(datum, conj_search=False)
    e = wid(datum)
    words = [[s] for s in refls]
    words += [w + [s] for w in words for s in refls]
    words += [w + [s] for w in words if len(w) == 2 for s in refls]
    # each word as (its prefix) * B_s, and length 3 as B_s * (the rest)
    pairs = [(bott_samelson(real, e, w[:-1]), b_object(real, w[-1]))
             for w in words]
    pairs += [(b_object(real, w[0]), bott_samelson(real, e, w[1:]))
              for w in words if len(w) == 3]
    if char == 0 and name == "B2-sc":
        assert any(type(c) is Fraction for _, n in pairs for mat in n.act
                   for row in mat for x in row for c in x.values())
    for m, n in pairs:
        out = tensor(m, n)
        acts, labels = _ref_tensor(m, n)
        assert [list(map(list, a)) for a in out.act] == acts
        assert dict(out.labels) == labels
