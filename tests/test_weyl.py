import pytest

from affkl import build_root_datum, weyl
from affkl.errors import (
    DatumMismatch,
    DimensionMismatch,
    MalformedDatum,
    NotFinitary,
    NotInWaff,
    NotLengthZero,
    OmegaUnbounded,
)
from affkl.matutil import mat_inv_int, mat_mul, mat_vec
from affkl.serialize import element_from_str
from affkl.weyl import (
    ExtWeylElt,
    bruhat_leq,
    conj_simple,
    element_from_word,
    enumerate_elements,
    finitary_data,
    finitary_data_over,
    in_waff,
    is_right_descent,
    min_double_coset_reps,
    omega_elements,
    omega_factorize,
    reduced_word,
    simple_reflections,
    translation,
    wid,
)

from conftest import random_elements


def test_length_examples(gl2):
    assert wid(gl2).length == 0
    assert translation(gl2, (1, 0)).length == 1
    refls = simple_reflections(gl2, conj_search=False)
    x = refls[0].as_element * translation(gl2, (0, 1))
    assert x.length == 0


def test_group_law_associative(gl2):
    elts = random_elements(gl2, 12, seed=3)
    for a in elts[:4]:
        for b in elts[4:8]:
            for c in elts[8:]:
                assert (a * b) * c == a * (b * c)
    e = wid(gl2)
    for a in elts:
        assert a * e == a and e * a == a
        assert a * a.inverse() == e


def test_length_bfs_oracle(gl2, a2, a1sc):
    # formula length == graph distance from the identity, through length 6
    for datum in (gl2, a2, a1sc):
        refls = simple_reflections(datum, conj_search=False)
        dist = {wid(datum): 0}
        layer = [wid(datum)]
        for step in range(1, 7):
            nxt = []
            for x in layer:
                for s in refls:
                    y = x * s.as_element
                    if y not in dist:
                        dist[y] = step
                        nxt.append(y)
            layer = nxt
        for x, d in dist.items():
            assert x.length == d, (datum.name, x, d, x.length)


def test_length_invariances(gl2):
    refls = simple_reflections(gl2, conj_search=False)
    omegas = omega_elements(gl2, bound=1)
    for u in enumerate_elements(gl2, 5):
        assert u.inverse().length == u.length
        for om in omegas:
            assert (om * u).length == u.length
            assert (u * om).length == u.length
        for s in refls:
            assert abs((u * s.as_element).length - u.length) == 1


def test_simple_reflections(gl2, a2):
    refls = simple_reflections(gl2)
    assert [s.kind for s in refls] == ["finite", "affine"]
    assert all(s.as_element.length == 1 for s in refls)
    s0 = refls[1]
    # s_0 = t(beta) s_beta
    beta = s0.beta
    assert beta == (1, -1)
    assert translation(gl2, beta) == s0.as_element * refls[0].as_element
    assert len(simple_reflections(a2)) == 3


def test_conj_data_witnesses(gl2, a2):
    for datum in (gl2, a2):
        for s in simple_reflections(datum):
            if s.kind != "affine":
                continue
            sp, w = s.conj_data
            assert (w * sp.as_element).length == w.length + 1
            assert w * sp.as_element * w.inverse() == s.as_element


def test_omega_factorize(gl2):
    refls = simple_reflections(gl2, conj_search=False)
    x = refls[0].as_element * translation(gl2, (0, 1))
    om, u = omega_factorize(x)
    assert om == x and u.is_identity()
    for y in random_elements(gl2, 50, seed=11):
        om, u = omega_factorize(y)
        assert om.length == 0
        assert om * u == y
        # u lies in W_aff: its omega part is trivial
        om2, _ = omega_factorize(u)
        assert om2.is_identity()


def test_conj_simple(gl2):
    refls = simple_reflections(gl2, conj_search=False)
    sa, s0 = refls
    om = sa.as_element * translation(gl2, (0, 1))
    assert conj_simple(om, sa).index == s0.index
    assert conj_simple(om, s0).index == sa.index
    assert conj_simple(wid(gl2), sa).index == sa.index
    assert conj_simple(om, conj_simple(om.inverse(), sa)).index == sa.index
    with pytest.raises(NotLengthZero):
        conj_simple(sa.as_element, sa)


def test_conj_simple_preserves_length_and_braid(gl2):
    refls = simple_reflections(gl2, conj_search=False)
    omegas = [om for om in omega_elements(gl2, bound=1) if not om.is_identity()]
    for om in omegas:
        images = [conj_simple(om, s) for s in refls]
        assert sorted(s.index for s in images) == sorted(s.index for s in refls)


def test_reduced_word(gl2):
    assert reduced_word(wid(gl2)) == ()
    refls = simple_reflections(gl2, conj_search=False)
    assert reduced_word(refls[1].as_element) == (1,)
    word = reduced_word(translation(gl2, (1, -1)))
    assert word == (1, 0)
    for u in enumerate_elements(gl2, 6):
        w = reduced_word(u)
        assert len(w) == u.length
        assert element_from_word(gl2, w) == u


def test_bruhat(gl2):
    elems = enumerate_elements(gl2, 5)
    e = wid(gl2)
    refls = simple_reflections(gl2, conj_search=False)
    t_alpha = translation(gl2, (1, -1))
    assert bruhat_leq(refls[0].as_element, t_alpha)
    for x in elems:
        assert bruhat_leq(e, x)
        assert bruhat_leq(x, x)
    # subword oracle through length 5
    for x in elems:
        for y in elems:
            assert bruhat_leq(x, y) == _subword_leq(gl2, x, y)
    # partial order: antisymmetry + transitivity on a small slice
    small = [x for x in elems if x.length <= 3]
    for x in small:
        for y in small:
            if bruhat_leq(x, y) and bruhat_leq(y, x):
                assert x == y
            if bruhat_leq(x, y):
                assert x.length <= y.length
            for z in small:
                if bruhat_leq(x, y) and bruhat_leq(y, z):
                    assert bruhat_leq(x, z)


def _subword_leq(datum, x, y):
    # x <= y iff some length-l(x) subword of a fixed reduced word of y
    # multiplies to x
    from itertools import combinations

    wx = reduced_word(x)
    wy = reduced_word(y)
    if len(wx) > len(wy):
        return False
    for pick in combinations(range(len(wy)), len(wx)):
        if element_from_word(datum, [wy[i] for i in pick]) == x:
            return True
    return False


@pytest.mark.parametrize("name, max_len", [
    ("GL2", 4), ("A2-sc", 4), ("B2-sc", 4), ("G2-sc", 4), ("GL3", 3)])
def test_bruhat_matches_subword_oracle(name, max_len):
    # pairs in shuffled order, so that the walk memoised on one y serves x
    # after x, and the memos left by other y are read again
    import random

    datum = build_root_datum(name)
    elems = enumerate_elements(datum, max_len)
    pairs = [(x, y) for x in elems for y in elems]
    random.Random(5).shuffle(pairs)
    for x, y in pairs:
        assert bruhat_leq(x, y) == _subword_leq(datum, x, y), (x, y)


def test_bruhat_cross_sector(gl2):
    om = omega_factorize(translation(gl2, (1, 0)))[0]
    u = wid(gl2)
    assert not bruhat_leq(u, om)
    assert bruhat_leq(om, om)


def test_enumerate(gl2, a2):
    assert enumerate_elements(gl2, 0) == [wid(gl2)]
    assert len(enumerate_elements(gl2, 2)) == 5
    # affine A2 layer sizes: 3l elements of length l >= 1
    elems = enumerate_elements(a2, 6)
    by_len = {}
    for x in elems:
        by_len[x.length] = by_len.get(x.length, 0) + 1
    assert by_len[0] == 1
    for l in range(1, 7):
        assert by_len[l] == 3 * l, by_len
    with pytest.raises(OmegaUnbounded):
        enumerate_elements(gl2, 2, sector="all")
    omegas = omega_elements(gl2, bound=1)
    assert all(om.length == 0 for om in omegas)
    allsec = enumerate_elements(gl2, 1, sector="all", omegas=omegas)
    assert len(allsec) == len(omegas) * len(enumerate_elements(gl2, 1))


def test_finitary(gl2):
    refls = simple_reflections(gl2, conj_search=False)
    sa, s0 = refls
    elems, longest = finitary_data([sa])
    assert [x.canonical_str() for x in elems] == ["e;0,0", "0;0,0"]
    assert longest == sa.as_element
    elems, longest = finitary_data_over(gl2, [])
    assert elems == [wid(gl2)] and longest == wid(gl2)
    with pytest.raises(NotFinitary):
        finitary_data([sa, s0])


def test_min_double_coset_reps(gl2):
    refls = simple_reflections(gl2, conj_search=False)
    sa = refls[0]
    reps = min_double_coset_reps([], [sa], 3, datum=gl2)
    strs = [r.canonical_str() for r in reps]
    assert strs == ["e;0,0", "0;-1,1", "e;-1,1", "0;-2,2"]
    # vacuous condition
    allr = min_double_coset_reps([], [], 3, datum=gl2)
    assert allr == enumerate_elements(gl2, 3)
    # uniqueness within cosets
    wk = finitary_data([sa])[0]
    seen = set()
    for r in reps:
        coset = frozenset(r * x for x in wk)
        assert coset not in seen
        seen.add(coset)


def test_serialization_round_trip(gl2):
    for x in random_elements(gl2, 30, seed=5):
        s = x.canonical_str()
        assert element_from_str(gl2, s) == x


@pytest.mark.parametrize("text", [
    "-1;0,0",      # index below range (would wrap to the last reflection)
    "1;0,0",       # GL2 has one simple root: index 1 is no finite letter
    "1;0",         # short translation
    "1;0,0,5",     # long translation
    "0;00,0",      # s0 with a padded coordinate
    "0;+0, 0",     # s0 with a signed and a spaced coordinate
    "0.0;0,0",     # a non-reduced word for e
])
def test_element_from_str_rejects_malformed(gl2, text):
    with pytest.raises(MalformedDatum):
        element_from_str(gl2, text)
    # parsed strings are remembered by element, but only canonical ones: a
    # second spelling of an element whose canonical string was parsed
    # before still raises
    for canonical in ("e;0,0", "0;0,0"):
        element_from_str(gl2, canonical)
    with pytest.raises(MalformedDatum):
        element_from_str(gl2, text)


def test_element_from_str_names_the_canonical_spelling(gl2):
    from affkl.serialize import hecke_from_json

    with pytest.raises(MalformedDatum, match="canonical spelling is 'e;0,0'"):
        element_from_str(gl2, "0.0;0,0")
    # a second spelling of a key no longer overwrites the first
    with pytest.raises(MalformedDatum, match="'0;00,0'"):
        hecke_from_json(gl2, {"0;0,0": {"0": 1}, "0;00,0": {"1": 5}})


REGISTRY = ("GL2", "GL3", "A1-sc", "A1-adj", "A1xA1-sc", "A2-sc", "A3-sc",
            "B2-sc", "C3-sc", "G2-sc")


@pytest.mark.parametrize("name", REGISTRY)
def test_right_descent_matches_length(name):
    # A1xA1-sc has two affine reflections; GL2 and GL3 have infinite Omega
    d = build_root_datum(name)
    refls = simple_reflections(d, conj_search=False)
    omegas = omega_elements(d, bound=1)
    for u in enumerate_elements(d, 4):
        for om in omegas:
            x = om * u
            for s in refls:
                expect = (x * s.as_element).length < x.length
                assert is_right_descent(x, s) == expect, (name, x, s)


def _reference_factor(x):
    """omega and the reduced word of u, by the length-difference walk."""
    refls = simple_reflections(x.datum, conj_search=False)
    om, suffix = x, []
    while om.length > 0:
        s = next(s for s in refls if (om * s.as_element).length < om.length)
        om = om * s.as_element
        suffix.append(s.index)
    return om, tuple(reversed(suffix))


def _reference_bruhat_waff(x, y):
    if x.length >= y.length:
        return x == y
    refls = simple_reflections(x.datum, conj_search=False)
    s = next(s for s in refls if (s.as_element * y).length < y.length)
    sx = s.as_element * x
    if sx.length < x.length:
        return _reference_bruhat_waff(sx, s.as_element * y)
    return _reference_bruhat_waff(x, s.as_element * y)


@pytest.mark.parametrize("name", ("GL3", "A2-sc", "B2-sc", "G2-sc"))
def test_factor_walk_matches_length_walk(name):
    d = build_root_datum(name)
    waff = enumerate_elements(d, 5)
    omegas = omega_elements(d, bound=1)
    for u in waff:
        assert reduced_word(u) == _reference_factor(u)[1]
        for om in omegas:
            x = om * u
            ref_om, ref_word = _reference_factor(x)
            assert omega_factorize(x) == (ref_om, element_from_word(d, ref_word))
            assert in_waff(x) == ref_om.is_identity()
    om = max(omegas, key=lambda e: e.canonical_str())
    small = [u for u in waff if u.length <= 4]
    for x in small:
        for y in small:
            expect = _reference_bruhat_waff(x, y)
            assert bruhat_leq(x, y) == expect, (name, x, y)
            assert bruhat_leq(om * x, om * y) == expect
            if not om.is_identity():
                assert not bruhat_leq(om * x, y)


def test_factor_memo_keys(gl2):
    om0 = omega_elements(gl2)[0]
    x = element_from_word(gl2, (1, 0, 1), omega=om0)
    assert ExtWeylElt(gl2, x.fin, x.trans) is x
    # the factorisation is memoised on x, and its parts are the elements
    # themselves
    assert weyl._factor(ExtWeylElt(gl2, x.fin, x.trans)) is weyl._factor(x)
    om, u = omega_factorize(x)
    assert om is om0 and u is element_from_word(gl2, (1, 0, 1))
    # t(1) has the same (fin, trans) over A1-sc and A1-adj, but it is
    # t(varpi) outside W_aff over A1-sc and t(alpha) of length 2 over A1-adj
    sc, adj = build_root_datum("A1-sc"), build_root_datum("A1-adj")
    x_sc, x_adj = translation(sc, (1,)), translation(adj, (1,))
    assert (x_sc.fin, x_sc.trans) == (x_adj.fin, x_adj.trans)
    assert not in_waff(x_sc)
    assert in_waff(x_adj) and reduced_word(x_adj) == (1, 0)
    for x in (x_sc, x_adj):
        om, u = omega_factorize(x)
        fp = x.datum.fingerprint
        assert om.datum.fingerprint == fp and u.datum.fingerprint == fp
        assert om * u == x


def _formula_product(a, b):
    # (w, l) * (y, m) = (w y, y^{-1}(l) + m), written out with matutil
    lam = mat_vec(mat_inv_int(b.fin), a.trans)
    return mat_mul(a.fin, b.fin), tuple(p + q for p, q in zip(lam, b.trans))


def _formula_length(x):
    d = x.datum
    total = 0
    for alpha, cov in d.positive_roots:
        n = sum(a * b for a, b in zip(x.trans, cov))
        positive = d.is_positive_root(tuple(mat_vec(x.fin, alpha)))
        total += abs(n) if positive else abs(n + 1)
    return total


@pytest.mark.parametrize("name", REGISTRY)
def test_one_object_per_element_and_its_memos(name):
    d, twin = build_root_datum(name), build_root_datum(name)
    assert d is not twin
    refls = simple_reflections(d, conj_search=False)
    pool = [om * u for om in omega_elements(d, bound=1)
            for u in enumerate_elements(d, 4)]
    for x in pool:
        assert ExtWeylElt(d, x.fin, x.trans) is x
        assert ExtWeylElt(twin, x.fin, list(x.trans)) is x
        assert x.inverse().inverse() is x
        # (w t(lam))^{-1} = t(-lam) w^{-1}
        assert x.inverse() is ExtWeylElt(d, *_formula_product(
            translation(d, [-c for c in x.trans]),
            ExtWeylElt(d, mat_inv_int(x.fin), (0,) * d.rank)))
        n = _formula_length(x)
        assert x.length == n
        for s in refls:
            left = s.as_element
            sx = ExtWeylElt(d, *_formula_product(left, x))
            xs = ExtWeylElt(d, *_formula_product(x, left))
            assert x.lmul(s) is sx and sx.lmul(s) is x
            assert x.rmul(s) is xs and xs.rmul(s) is x
            assert x.left_descents()[s.index] == (_formula_length(sx) < n)
            assert is_right_descent(x, s) == (_formula_length(xs) < n)


def test_translation_of_the_wrong_rank_is_rejected(gl2):
    # the pairings zip a translation with the coroots, so a short one would
    # give a wrong length instead of an error
    e = wid(gl2)
    for lam in ((1,), (1, 0, 0)):
        with pytest.raises(DimensionMismatch):
            translation(gl2, lam)
        with pytest.raises(DimensionMismatch):
            ExtWeylElt(gl2, e.fin, lam)


def test_reduced_word_outside_waff(gl2):
    refls = simple_reflections(gl2, conj_search=False)
    for om in omega_elements(gl2, bound=1):
        if om.is_identity():
            continue
        x = om * refls[0].as_element * refls[1].as_element
        # a cold call, then one that reads the memo
        for _ in range(2):
            with pytest.raises(NotInWaff):
                reduced_word(x)
        assert omega_factorize(x)[0] == om


def _finite_group(d):
    finite = [s for s in simple_reflections(d, conj_search=False)
              if s.kind == "finite"]
    return finitary_data_over(d, finite)[0]


@pytest.mark.parametrize("name", REGISTRY)
def test_memoised_group_law(name):
    # (w, l) * (y, m) = (w y, y^{-1}(l) + m), written out with matutil
    d = build_root_datum(name)
    wf = _finite_group(d)
    pool = [om * u for om in omega_elements(d, bound=1)
            for u in enumerate_elements(d, 3)]
    lams = sorted({x.trans for x in pool})
    inverses = {y.fin: mat_inv_int(y.fin) for y in wf}
    for i, w in enumerate(wf):
        for j, y in enumerate(wf):
            for k, lam in enumerate(lams):
                mu = lams[(k + i + j) % len(lams)]
                a, b = ExtWeylElt(d, w.fin, lam), ExtWeylElt(d, y.fin, mu)
                prod = a * b
                assert prod.fin == mat_mul(w.fin, y.fin)
                assert prod.trans == tuple(
                    p + q for p, q in zip(mat_vec(inverses[y.fin], lam), mu))
                assert prod == ExtWeylElt(d, prod.fin, prod.trans)
    for a in pool[:12]:
        for b in pool[-12:]:
            assert a * b == ExtWeylElt(
                d, mat_mul(a.fin, b.fin),
                [p + q for p, q in zip(mat_vec(inverses[b.fin], a.trans),
                                       b.trans)])


def test_product_memo_stays_within_finite_group(monkeypatch):
    from affkl import hecke
    from affkl.soergel import PCanTable
    from affkl.tilt import mult_table

    monkeypatch.setattr(hecke, "_KL_CACHE", {})
    for name, L, K in (("A2-sc", (0,), (1, 2)), ("B2-sc", (0,), (1,)),
                       ("G2-sc", (0,), (1,))):
        d = build_root_datum(name)
        refls = simple_reflections(d, conj_search=False)
        table = weyl._table(d)
        mult_table([refls[i] for i in L], [refls[i] for i in K], 5,
                   PCanTable(d, 0, source="kl"))
        fins = {x.fin for x in _finite_group(d)}
        # the product memo: finite part numbers w -> {y: w y}
        pairs = [(table.mats[w], table.mats[y], table.mats[wy])
                 for w, row in enumerate(table.prod) for y, wy in row.items()]
        assert pairs and all(m in fins for pair in pairs for m in pair), name
        assert len(pairs) <= len(fins) ** 2


def test_word_memo_keys():
    # -1 is the longest element of W_f over A1xA1-sc, B2-sc and G2-sc, with
    # three different reduced words
    neg = ((-1, 0), (0, -1))
    for name, word in (("A1xA1-sc", (0, 1)), ("B2-sc", (0, 1, 0, 1)),
                       ("G2-sc", (0, 1, 0, 1, 0, 1))):
        d = build_root_datum(name)
        x = ExtWeylElt(d, neg, (0, 0))
        assert x.fin_word() == word, name
        assert x.canonical_str() == ".".join(map(str, word)) + ";0,0"
        assert element_from_str(d, x.canonical_str()) == x
        assert x.length == len(word)


def test_root_sign_memo_keys(a2):
    # A2-sc with the opposite positive system: same matrices, same
    # fingerprint-free (fin, trans) pairs, different lengths
    op = build_root_datum({"simple_roots": [(-2, 1), (1, -2)],
                           "simple_coroots": [(-1, 0), (0, -1)]})
    for x in enumerate_elements(a2, 3):
        for d in (a2, op):
            y = ExtWeylElt(d, x.fin, x.trans)
            expect = 0
            for alpha, cov in d.positive_roots:
                n = sum(a * b for a, b in zip(y.trans, cov))
                img = tuple(mat_vec(y.fin, alpha))
                expect += abs(n) if d.is_positive_root(img) else abs(n + 1)
            assert y.length == expect, (d.name, x)
            for s in simple_reflections(d, conj_search=False):
                assert is_right_descent(y, s) == (
                    (y * s.as_element).length < expect)


def test_elements_over_equal_data_built_twice():
    # two separately built copies of one datum: equal fingerprints, distinct
    # objects; elements over them are equal, hash alike and multiply
    d1, d2 = build_root_datum("GL2"), build_root_datum("GL2")
    assert d1 is not d2 and d1.fingerprint == d2.fingerprint
    for x in enumerate_elements(d1, 3):
        y = ExtWeylElt(d2, x.fin, x.trans)
        assert x == y and y == x and hash(x) == hash(y)
        assert x * x == y * y == x * y == y * x
    other = build_root_datum("A2-sc")
    s = simple_reflections(other, conj_search=False)[0].as_element
    t = ExtWeylElt(d1, s.fin, s.trans)
    assert s != t
    with pytest.raises(DatumMismatch):
        s * t
    with pytest.raises(DatumMismatch):
        t * s


# Generators of X/ZR and the length-zero elements of every bundled datum, as
# computed by one Gauss-Jordan solve per k*lam for k = 1, ..., 60.
OMEGA_PINS = {
    "A1-adj": ([], ["e;0"], ["e;0"]),
    "A1-sc": ([((1,), 2)], ["0;-1", "e;0"], ["0;-1", "e;0"]),
    "A1xA1-sc": ([((1, 0), 2), ((0, 1), 2)],
                 ["0.1;-1,-1", "0;-1,0", "1;0,-1", "e;0,0"],
                 ["0.1;-1,-1", "0;-1,0", "1;0,-1", "e;0,0"]),
    "A2-sc": ([((1, 0), 3), ((0, 1), 3)],
              ["0.1;0,-1", "1.0;-1,0", "e;0,0"],
              ["0.1;0,-1", "1.0;-1,0", "e;0,0"]),
    "A3-sc": ([((1, 0, 0), 4), ((0, 1, 0), 2), ((0, 0, 1), 4)],
              ["0.1.2;0,0,-1", "1.0.2.1;0,-1,0", "2.1.0;-1,0,0", "e;0,0,0"],
              ["0.1.2;0,0,-1", "1.0.2.1;0,-1,0", "2.1.0;-1,0,0", "e;0,0,0"]),
    "B2-sc": ([((0, 1), 2)], ["1.0.1;0,-1", "e;0,0"],
              ["1.0.1;0,-1", "e;0,0"]),
    "C3-sc": ([((1, 0, 0), 2), ((0, 0, 1), 2)],
              ["0.1.2.1.0;-1,0,0", "e;0,0,0"],
              ["0.1.2.1.0;-1,0,0", "e;0,0,0"]),
    "G2-sc": ([], ["e;0,0"], ["e;0,0"]),
    "GL2": ([((1, 0), 0), ((0, 1), 0)],
            ["0;-1,0", "0;0,1", "e;-1,-1", "e;0,0", "e;1,1"],
            ["0;-1,0", "0;-2,-1", "0;0,1", "0;1,2", "e;-1,-1", "e;-2,-2",
             "e;0,0", "e;1,1", "e;2,2"]),
    "GL3": ([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)],
            ["0.1;-1,-1,0", "0.1;0,0,1", "1.0;-1,0,0", "1.0;0,1,1",
             "e;-1,-1,-1", "e;0,0,0", "e;1,1,1"],
            ["0.1;-1,-1,0", "0.1;-2,-2,-1", "0.1;0,0,1", "0.1;1,1,2",
             "1.0;-1,0,0", "1.0;-2,-1,-1", "1.0;0,1,1", "1.0;1,2,2",
             "e;-1,-1,-1", "e;-2,-2,-2", "e;0,0,0", "e;1,1,1", "e;2,2,2"]),
}


def test_omega_pins_cover_every_bundled_datum():
    from affkl.rootdata import bundled_names

    assert sorted(OMEGA_PINS) == bundled_names()


@pytest.mark.parametrize("name", sorted(OMEGA_PINS))
def test_quotient_generators_and_omega_elements_pinned(name):
    d = build_root_datum(name)
    gens, bound1, bound2 = OMEGA_PINS[name]
    assert weyl._quotient_generators(d) == gens
    assert [w.canonical_str() for w in omega_elements(d, 1)] == bound1
    assert [w.canonical_str() for w in omega_elements(d, 2)] == bound2
