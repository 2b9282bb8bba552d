from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from affkl import build_root_datum, homs, soergel
from affkl.bimodule import b_object, character, tensor
from affkl.cache import load_table
from affkl.errors import IdentificationFailure, SolverError
from affkl.hecke import bar, canonical_basis, mult, unit
from affkl.laurent import LaurentPoly, ONE
from affkl.linalg import independent_rows, rref_field
from affkl.realization import build_realization
from affkl.serialize import parse_element_grammar
from affkl.soergel import PCanTable, end0_split, is_shifted_iso, p_canonical, p_kl
from affkl.weyl import (
    element_from_word,
    enumerate_elements,
    omega_factorize,
    reduced_word,
    simple_reflections,
    translation,
    wid,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def gl2_tables(gl2):
    return {p: PCanTable(gl2, p) for p in (0, 2, 3)}


def test_bs_indecomposable_every_char(gl2):
    for char in (0, 2, 3, 5):
        real = build_realization(gl2, char)
        for s in simple_reflections(gl2, conj_search=False):
            pieces = end0_split(b_object(real, s))
            assert len(pieces) == 1


def test_split_bs_ss(gl2):
    real = build_realization(gl2, 0)
    sa = simple_reflections(gl2, conj_search=False)[0]
    m = tensor(b_object(real, sa), b_object(real, sa))
    pieces = end0_split(m)
    assert len(pieces) == 2
    ring = real.ring
    # idempotents orthogonal and summing to the identity
    (e1, s1), (e2, s2) = pieces
    ident = [[ring.one if i == j else {} for j in range(m.rank)]
             for i in range(m.rank)]
    total = [[ring.add(e1[i][j], e2[i][j]) for j in range(m.rank)]
             for i in range(m.rank)]
    assert total == ident
    prod = ring.mat_mul(e1, e2)
    assert all(not prod[i][j] for i in range(m.rank) for j in range(m.rank))
    sq = ring.mat_mul(e1, e1)
    assert sq == e1
    # summands are B_s(1) and B_s(-1)
    b = b_object(real, sa)
    shifts = sorted(min(b.degrees) - min(p.degrees) for _, p in pieces)
    assert shifts == [-1, 1]
    for _, piece in pieces:
        piece.validate()
        n = min(b.degrees) - min(piece.degrees)
        assert is_shifted_iso(piece, b, n)


def test_pcan_trivial_cases(gl2, gl2_tables):
    table = gl2_tables[2]
    e = wid(gl2)
    assert p_canonical(e, table) == unit(gl2)
    for s in simple_reflections(gl2, conj_search=False):
        pb = p_canonical(s.as_element, table)
        assert pb == canonical_basis(s.as_element)
        assert p_kl(e, s.as_element, table) == LaurentPoly.v()
        assert p_kl(s.as_element, s.as_element, table) == ONE


def test_char0_oracle(gl2, a2):
    table = PCanTable(gl2, 0)
    for u in enumerate_elements(gl2, 3):
        assert table.ensure(u) == canonical_basis(u), u
    ta2 = PCanTable(a2, 0)
    for word in ((), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)):
        u = element_from_word(a2, word)
        assert ta2.ensure(u) == canonical_basis(u), word


def test_p2_differs_at_known_element(gl2, gl2_tables):
    refls = simple_reflections(gl2, conj_search=False)
    sa, s0 = refls[0].as_element, refls[1].as_element
    table = gl2_tables[2]
    w = s0 * sa * s0
    assert p_canonical(w, table) == canonical_basis(w) + canonical_basis(s0)
    w2 = sa * s0 * sa
    assert p_canonical(w2, table) == canonical_basis(w2) + canonical_basis(sa)
    # at p = 3 the same elements are generic
    assert p_canonical(w, gl2_tables[3]) == canonical_basis(w)


def test_pcan_bar_invariance(gl2, gl2_tables):
    for p in (2, 3):
        table = gl2_tables[p]
        for u in enumerate_elements(gl2, 4):
            pb = table.ensure(u)
            assert bar(pb) == pb, (p, u)


def test_pcan_inversion_symmetry(gl2, gl2_tables):
    table = gl2_tables[2]
    elems = enumerate_elements(gl2, 4)
    for u in elems:
        table.ensure(u)
    for w in elems:
        for y in elems:
            assert p_kl(y, w, table) == p_kl(y.inverse(), w.inverse(), table)


def test_pcan_omega_sector(gl2, gl2_tables):
    table = gl2_tables[2]
    om = omega_factorize(translation(gl2, (1, 0)))[0]
    u = translation(gl2, (1, -1))
    pb = p_canonical(om * u, table)
    assert pb == mult(unit(gl2, om), p_canonical(u, table))


def test_word_independence_braid(a2):
    # s t s = t s t in the finite part of affine A2
    for char in (0, 2, 3):
        table = PCanTable(a2, char)
        u = element_from_word(a2, (0, 1, 0))
        exp1, _ = table.expansion_via_word(u, (0, 1, 0))
        exp2, _ = table.expansion_via_word(u, (1, 0, 1))
        assert exp1 == exp2, char


def test_base_change_positive(gl2, gl2_tables):
    table = gl2_tables[2]
    for u in enumerate_elements(gl2, 4):
        work = table.ensure(u)
        while work:
            top = max(work.terms, key=lambda w: (w.length, w.canonical_str()))
            c = work.coeff(top)
            assert c.is_nonneg(), (u, top, c)
            work = work - canonical_basis(top).scale(c)


def test_split_error_names_element_word_and_stage(gl2, monkeypatch):
    # at p=2 the character of rep(s1 s0)·B_s1 has 1 + v^2 at s1, so the
    # character test cannot skip this split
    table = PCanTable(gl2, 2)
    for y in enumerate_elements(gl2, 2):
        table.ensure(y)
    u = parse_element_grammar(gl2, "s1 s0 s1")
    calls = []

    def failing_split(m):
        calls.append(m)
        raise SolverError("End^0 is not closed under composition")

    monkeypatch.setattr(soergel, "end0_split", failing_split)
    with pytest.raises(SolverError) as err:
        table.ensure(u)
    assert len(calls) == 1
    msg = str(err.value)
    words = " ".join(f"s{i}" for i in reduced_word(u))
    assert f"{u.canonical_str()} (word {words})" in msg
    assert "End^0 split of rep(y)·B_s" in msg
    assert "not closed under composition" in msg
    assert u not in table.entries


def test_identification_error_names_element_word_and_stage(gl2, monkeypatch):
    # rep(s0 s1 s0)·B_s1 at p=2 splits into three summands, so its lower
    # summands go through is_shifted_iso
    table = PCanTable(gl2, 2)
    for y in enumerate_elements(gl2, 3):
        table.ensure(y)
    u = parse_element_grammar(gl2, "s0 s1 s0 s1")
    assert table.orbit_least(u)[0] == u
    monkeypatch.setattr(soergel, "is_shifted_iso", lambda s, t, shift: False)
    with pytest.raises(IdentificationFailure) as err:
        table.ensure(u)
    msg = str(err.value)
    words = " ".join(f"s{i}" for i in reduced_word(u))
    assert f"{u.canonical_str()} (word {words})" in msg
    assert "summand identification of rep(y)·B_s" in msg
    assert "does not match the stored representative" in msg
    assert u not in table.entries


def _rep_times_bs(table, u):
    """M = rep(y)·B_s for the last letter s of u's reduced word, y = us."""
    s = simple_reflections(table.datum, conj_search=False)[reduced_word(u)[-1]]
    y = u * s.as_element
    table.ensure(y)
    return tensor(table.reps[y], b_object(table.real, s))


@pytest.mark.parametrize("name, p, word, fires, summands", [
    ("GL2", 2, "s1 s0", True, 1),
    # M is indecomposable, but p-b_{s1 s0 s1} itself has the coefficient
    # 1 + v^2 at s1, so the character cannot tell it from a split M
    ("GL2", 2, "s1 s0 s1", False, 1),
    # b_{s1 s2}·b_{s1} = b_{s1 s2 s1} + b_{s1}
    ("A2-sc", 0, "s1 s2 s1", False, 2),
])
def test_character_test_decides_from_character(name, p, word, fires, summands):
    datum = build_root_datum(name)
    table = PCanTable(datum, p)
    u = parse_element_grammar(datum, word)
    big = _rep_times_bs(table, u)
    assert soergel._character_proves_indecomposable(character(big), u) is fires
    assert len(end0_split(big)) == summands


@pytest.mark.parametrize("name, p, length", [
    ("GL2", 2, 4), ("GL2", 3, 4), ("GL3", 2, 3), ("A2-sc", 0, 3),
])
def test_character_shortcut_matches_full_split(name, p, length):
    datum = build_root_datum(name)
    table = PCanTable(datum, p)
    ring = table.real.ring
    fired = 0
    for u in sorted(enumerate_elements(datum, length),
                    key=lambda w: (w.length, w.canonical_str())):
        if u.length == 0:
            table.ensure(u)
            continue
        big = _rep_times_bs(table, u)
        table.ensure(u)
        # elements transported along their Omega-orbit make no split
        if table.orbit_least(u)[0] != u:
            continue
        if not soergel._character_proves_indecomposable(character(big), u):
            continue
        fired += 1
        rep = table.reps[u]
        ident = [[ring.one if i == j else {} for j in range(big.rank)]
                 for i in range(big.rank)]
        pieces = end0_split(big)
        assert len(pieces) == 1, u
        for full in (pieces[0][1], soergel.materialize_summand(big, ident)):
            assert full.degrees == rep.degrees, u
            assert full.act == rep.act, u
            assert full.labels == rep.labels, u
    assert fired == table.stats["splits_skipped"] > 0


def _rational_leaves(obj):
    """Every coefficient in nested lists, tuples and polynomial dicts."""
    if isinstance(obj, dict):
        for c in obj.values():
            yield from _rational_leaves(c)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _rational_leaves(x)
    else:
        yield obj


def _assert_canonical_rationals(obj, what):
    for c in _rational_leaves(obj):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), \
            (what, c, type(c))


def _assert_canonical_reps(table):
    for w, rep in table.reps.items():
        _assert_canonical_rationals(rep.act, ("act", w))
        _assert_canonical_rationals([v for _, v in rep.labels], ("labels", w))


def test_q_route_keeps_integral_rationals_as_ints(monkeypatch):
    """Over Q an integral coefficient is an int and only a non-integral one
    a Fraction, from every solve through to the stored representatives and a
    loaded cache."""
    results = []

    def recording(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            results.append((fn.__name__, out))
            return out
        return wrapped

    monkeypatch.setattr(homs, "kernel", recording(homs.kernel))
    monkeypatch.setattr(soergel, "materialize_summand",
                        recording(soergel.materialize_summand))
    datum = build_root_datum("A2-sc")
    table = PCanTable(datum, 0)
    for u in sorted(enumerate_elements(datum, 3),
                    key=lambda w: (w.length, w.canonical_str())):
        table.ensure(u)
    assert {name for name, _ in results} == {"kernel", "materialize_summand"}
    for name, out in results:
        if name == "materialize_summand":
            _assert_canonical_rationals(out.act, (name, "act"))
            _assert_canonical_rationals([v for _, v in out.labels],
                                        (name, "labels"))
        else:
            _assert_canonical_rationals(out or [], name)
    _assert_canonical_reps(table)
    loaded = load_table(DATA / "cache_A2-sc_p0_len2.json")
    assert loaded.reps
    _assert_canonical_reps(loaded)


def _per_degree_summand(m, emat):
    """(degrees, act, labels) of the image of emat, every action and label
    image expressed in v_l = e . w_l by one homs.solve_in_basis per degree."""
    ring = m.real.ring
    n = m.rank
    ebar = soergel._scalar_part(ring, emat, m.degrees)
    w_vecs, _ = rref_field([[ebar[i][j] for i in range(n)] for j in range(n)],
                           ring.field)
    degrees = [next(m.degrees[i] for i, c in enumerate(w) if c)
               for w in w_vecs]
    vcols = [[ring.lincomb((c, emat[i][j]) for j, c in enumerate(w) if c)
              for i in range(n)] for w in w_vecs]
    images = defaultdict(list)
    for g in range(m.real.dim):
        for l, v in enumerate(vcols):
            images[degrees[l] + 2].append((("act", g, l),
                                           ring.mat_vec(m.act[g], v)))
    for lw, (_, xs) in enumerate(m.labels):
        for xi, x in enumerate(xs):
            ex = ring.mat_vec(emat, x)
            if any(ex):
                deg = next(ring.degree(e) + m.degrees[i]
                           for i, e in enumerate(ex) if e)
                images[deg].append((("label", lw, xi), ex))
    coords = {}
    for deg, items in images.items():
        sols = homs.solve_in_basis(vcols, degrees, [v for _, v in items], deg,
                                   ring)
        assert sols is not None, deg
        coords.update(zip((key for key, _ in items), sols))
    r = len(vcols)
    act = tuple([[coords["act", g, l][k] for l in range(r)] for k in range(r)]
                for g in range(m.real.dim))
    labels = []
    for lw, (w, xs) in enumerate(m.labels):
        vecs = independent_rows(
            [tuple(coords["label", lw, xi]) for xi in range(len(xs))
             if ("label", lw, xi) in coords], ring)
        if vecs:
            labels.append((w, tuple(vecs)))
    return tuple(degrees), act, tuple(labels)


@pytest.mark.parametrize("name, p, length", [
    ("GL2", 2, 5), ("GL2", 3, 4), ("GL3", 2, 4), ("A2-sc", 0, 3),
    ("B2-sc", 0, 3), ("G2-sc", 5, 3),
])
def test_back_substitution_matches_per_degree_solves(name, p, length,
                                                    monkeypatch):
    """Every summand of every End^0 split has the act and labels that the
    per-degree solves of homs.solve_in_basis give."""
    calls = []

    def recording(m, emat):
        out = materialize(m, emat)
        calls.append((m, emat, out))
        return out

    materialize = soergel.materialize_summand
    monkeypatch.setattr(soergel, "materialize_summand", recording)
    datum = build_root_datum(name)
    table = PCanTable(datum, p)
    for u in sorted(enumerate_elements(datum, length),
                    key=lambda w: (w.length, w.canonical_str())):
        table.ensure(u)
    assert calls
    for m, emat, piece in calls:
        assert (piece.degrees, piece.act, piece.labels) == \
            _per_degree_summand(m, emat)


@pytest.mark.parametrize("name, p, word", [
    ("A2-sc", 0, "s1 s2 s1"), ("GL2", 3, "s1 s0 s1"),
])
def test_materialize_summand_rejects_a_non_idempotent(name, p, word):
    datum = build_root_datum(name)
    table = PCanTable(datum, p)
    big = _rep_times_bs(table, parse_element_grammar(datum, word))
    pieces = end0_split(big)
    assert len(pieces) >= 2
    ring = table.real.ring
    two = ring.field.from_int(2)
    (e1, _), (e2, _) = pieces[:2]
    # 2 e1 and e1 + 2 e2 have the images of e1 and e1 + e2, but neither is
    # idempotent
    for emat in ([[ring.smul(two, x) for x in row] for row in e1],
                 [[ring.add(x, ring.smul(two, y)) for x, y in zip(r1, r2)]
                  for r1, r2 in zip(e1, e2)]):
        with pytest.raises(SolverError):
            soergel.materialize_summand(big, emat)
