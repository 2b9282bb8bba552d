import json
import re

import pytest

from affkl.errors import NotMinimalRep, SupportIncomplete
from affkl.serialize import element_from_str
from affkl.soergel import PCanTable
from affkl.tilt import (
    mult_table,
    parabolic_tilt_mult,
    parity_hom_dim,
    tilt_hom_dim,
    tilt_mult,
)
from affkl.weyl import (
    enumerate_elements,
    simple_reflections,
    wid,
)


@pytest.fixture(scope="module")
def kl_table(gl2):
    return PCanTable(gl2, 0, source="kl")


@pytest.fixture(scope="module")
def p2_table(gl2):
    t = PCanTable(gl2, 2)
    for u in enumerate_elements(gl2, 5):
        t.ensure(u)
    return t


def test_tilt_mult_basics(gl2, kl_table):
    e = wid(gl2)
    refls = simple_reflections(gl2, conj_search=False)
    s = refls[0].as_element
    assert tilt_mult(s, s, kl_table) == 1
    assert tilt_mult(s, e, kl_table) == 1
    assert tilt_mult(e, s, kl_table) == 0
    for w in enumerate_elements(gl2, 4):
        assert tilt_mult(w, w, kl_table) == 1


def test_char0_matches_kl_eval(gl2, kl_table):
    from affkl.hecke import kl_poly

    for w in enumerate_elements(gl2, 4):
        for y in enumerate_elements(gl2, 4):
            assert tilt_mult(w, y, kl_table) == kl_poly(y, w).eval_at_one()


def test_tilt_hom_dim(gl2, kl_table):
    e = wid(gl2)
    refls = simple_reflections(gl2, conj_search=False)
    s = refls[0].as_element
    assert tilt_hom_dim(e, e, kl_table) == 1
    assert tilt_hom_dim(s, s, kl_table) == 2
    for w in enumerate_elements(gl2, 3):
        for y in enumerate_elements(gl2, 3):
            assert tilt_hom_dim(w, y, kl_table) == tilt_hom_dim(y, w, kl_table)


def test_support_incomplete(gl2, kl_table):
    refls = simple_reflections(gl2, conj_search=False)
    s = refls[0].as_element
    with pytest.raises(SupportIncomplete):
        tilt_hom_dim(s, s, kl_table, support=[s])
    assert tilt_hom_dim(s, s, kl_table, support=[wid(gl2), s]) == 2


def test_parity_equals_tilt_inverse(gl2, kl_table, p2_table):
    for table in (kl_table, p2_table):
        for w in enumerate_elements(gl2, 4):
            for y in enumerate_elements(gl2, 4):
                assert parity_hom_dim(w, y, table) == tilt_hom_dim(
                    w.inverse(), y.inverse(), table)


def test_parabolic_degenerates(gl2, kl_table):
    for w in enumerate_elements(gl2, 3):
        for y in enumerate_elements(gl2, 3):
            assert parabolic_tilt_mult([], [], w, y, kl_table) == \
                tilt_mult(w, y, kl_table)


def test_parabolic_example(gl2, kl_table):
    refls = simple_reflections(gl2, conj_search=False)
    sa = refls[0]
    e = wid(gl2)
    assert parabolic_tilt_mult([], [sa], e, e, kl_table) == 1


def test_not_minimal_rep(gl2, kl_table):
    refls = simple_reflections(gl2, conj_search=False)
    sa = refls[0]
    with pytest.raises(NotMinimalRep):
        parabolic_tilt_mult([], [sa], sa.as_element, wid(gl2), kl_table)


def test_mult_table_structure(gl2, kl_table):
    mt = mult_table([], [], 1, kl_table)
    entries = {(w.canonical_str(), y.canonical_str()): m
               for (w, y), m in mt.entries.items()}
    assert entries == {
        ("e;0,0", "e;0,0"): 1,
        ("0;-1,1", "0;-1,1"): 1, ("0;-1,1", "e;0,0"): 1,
        ("0;0,0", "0;0,0"): 1, ("0;0,0", "e;0,0"): 1,
    }
    # unitriangular along Bruhat order
    from affkl.weyl import bruhat_leq

    mt4 = mult_table([], [], 4, kl_table)
    for (w, y), m in mt4.entries.items():
        assert m >= 0
        assert bruhat_leq(y, w)
        if w == y:
            assert m == 1


def test_z_independence_a2():
    from affkl import build_root_datum

    a2 = build_root_datum("A2-sc")
    table = PCanTable(a2, 0, source="kl")
    refls = simple_reflections(a2, conj_search=False)
    # all finitary L, K built from proper subsets
    subsets = [[], [refls[0]], [refls[2]], [refls[0], refls[1]]]
    for L in subsets:
        for K in subsets:
            mt = mult_table(L, K, 4, table)   # raises on z-dependence
            for (w, y), m in mt.entries.items():
                assert m >= 0


def test_render_round_trip(gl2, kl_table):
    mt = mult_table([], [], 2, kl_table)
    doc = json.loads(mt.render_json())
    rebuilt = {}
    for wstr, ystr, m in doc["entries"]:
        rebuilt[(element_from_str(gl2, wstr), element_from_str(gl2, ystr))] = m
    assert rebuilt == mt.entries
    # the other renderers produce stable text
    assert mt.render("csv").startswith("w\\y,")
    assert mt.render("text").strip()
    assert mt.render("tex").startswith(r"\begin{tabular}")


def test_graded_to_ungraded_collapse(gl2, kl_table, p2_table):
    from affkl.soergel import p_kl

    for table in (kl_table, p2_table):
        for w in enumerate_elements(gl2, 4):
            for y in enumerate_elements(gl2, 4):
                h = p_kl(y, w, table)
                assert tilt_mult(w, y, table) == sum(h.coeffs.values())


def _oracle_parabolic(basis, wl, wk_elements, w, y):
    """The signed sum at y, straight from the basis element of w_L w."""
    b = basis(wl * w)
    return sum((-1) ** x.length * b.coeff(y * x).eval_at_one()
               for x in wk_elements)


# "datum" on the kl route, "datum/p2" on the bimodule route at p = 2, and
# "datum/all" on the kl route with every length-zero sector of bound 1
@pytest.mark.parametrize("name, L, K", (("A2-sc", (0,), (1, 2)),
                                        ("B2-sc", (0,), (1,)),
                                        ("A2-sc", (), ()),
                                        ("G2-sc", (0,), (1,)),
                                        ("GL2/p2", (), (0,)),
                                        ("GL2/all", (0,), ())))
def test_mult_table_matches_per_pair(name, L, K):
    from affkl import build_root_datum
    from affkl.hecke import canonical_basis
    from affkl.soergel import p_canonical
    from affkl.weyl import (finitary_data_over, in_waff,
                            min_double_coset_reps, omega_elements)

    dname, _, variant = name.partition("/")
    d = build_root_datum(dname)
    if variant == "p2":
        table = PCanTable(d, 2)
        basis = lambda x: p_canonical(x, table)   # noqa: E731
    else:
        table = PCanTable(d, 0, source="kl")
        basis = canonical_basis
    sector, omegas = (("all", omega_elements(d, bound=1)) if variant == "all"
                      else ("waff_only", None))
    refls = simple_reflections(d, conj_search=False)
    Ls, Ks = [refls[i] for i in L], [refls[i] for i in K]
    mt = mult_table(Ls, Ks, 5, table, sector=sector, omegas=omegas)
    wl_elements, wl = finitary_data_over(d, Ls)
    wk_elements, _ = finitary_data_over(d, Ks)
    reps = [w for w in min_double_coset_reps(Ls, Ks, 5, datum=d,
                                             sector=sector, omegas=omegas)
            if (wl * w).length <= 5]
    assert list(mt.row_order) == reps and len(reps) > 3
    nonzero = 0
    for w in reps:
        for y in reps:
            m = parabolic_tilt_mult(Ls, Ks, w, y, table, strict=True)
            assert mt.entry(w, y) == m == _oracle_parabolic(
                basis, wl, wk_elements, w, y), (w, y)
            nonzero += m != 0
    assert nonzero == len(mt.entries) > len(reps)
    if variant == "all":
        assert not all(in_waff(w) for w in reps)


def test_negative_target_still_raises(gl2, kl_table, monkeypatch):
    import affkl.tilt as tilt
    from affkl.errors import NegativeMultiplicity
    from affkl.hecke import HeckeElt
    from affkl.laurent import ONE
    from affkl.soergel import p_canonical

    e = wid(gl2)
    sa = simple_reflections(gl2, conj_search=False)[0]
    monkeypatch.setattr(tilt, "p_canonical",
                        lambda x, table: -p_canonical(x, table))
    message = "^" + re.escape(f"signed sum for ({e}, {e}) came out -1") + "$"
    with pytest.raises(NegativeMultiplicity, match=message):
        mult_table([], [], 2, kl_table)
    with pytest.raises(NegativeMultiplicity, match=message):
        parabolic_tilt_mult([], [], e, e, kl_table)
    # a target at s_a alone reads 0 on the coset e W_K = {e} but 1 on
    # s_a e W_K, so the left-coset sweep over W_L = {e, s_a} breaks at s_a
    monkeypatch.setattr(tilt, "p_canonical", lambda x, table: HeckeElt(
        gl2, {sa.as_element: ONE}))
    message = "^" + re.escape(
        f"left-coset sweep broke at z={sa.as_element}: 1 != 0") + "$"
    with pytest.raises(NegativeMultiplicity, match=message):
        mult_table([sa], [], 2, kl_table)
    # and a target at e alone reads 1 on e W_K but 0 on s_a e W_K
    monkeypatch.setattr(tilt, "p_canonical", lambda x, table: HeckeElt(
        gl2, {e: ONE}))
    message = "^" + re.escape(
        f"left-coset sweep broke at z={sa.as_element}: 0 != 1") + "$"
    with pytest.raises(NegativeMultiplicity, match=message):
        mult_table([sa], [], 2, kl_table)


# sha256 of the kl-route renders, fixed before the Hecke kernels moved to
# plain coefficient dicts; the benchmark's goldens stop at lengths 6-7
_PINNED_RENDERS = {
    ("A2-sc", (), (), 8): {
        "json": "f7e2fba229f58aad21adeef7b9e3367a2d5fa9264a48d495cfb9813bdb641bb6",
        "csv": "7726759f866d537d97e1b52dd2e0be641afe6a9c1ac0d4ef0c51bf1547288642",
        "text": "9fca9c502c4a647f7f5298ff5fec55cc8ff432a8978b3595b931f61b30685adc",
        "tex": "c08aa24133156f7a1f227284da6bc7372d3a1b55a5622ec225ea0cd176116945",
    },
    ("B2-sc", (0,), (1,), 10): {
        "json": "a415401201d67588aa03171e01e5f088f4b62776a2c8255669bcdead96088a76",
        "csv": "fc32a65930f6ac3551f1f764a16602733b621576c91a0bb55f7ebb6db5807c47",
        "text": "5fd1414077290e5b3239b141c30dea4689de672c51f3e3f1545cce95874dd5e3",
        "tex": "a38527f39e460636bf169830ee40c333d5cfa49d5faa2e206173e499cc95181c",
    },
}


@pytest.mark.parametrize("key", sorted(_PINNED_RENDERS))
def test_kl_route_tables_pinned(key):
    import hashlib

    from affkl import build_root_datum

    name, L, K, max_len = key
    datum = build_root_datum(name)
    refls = simple_reflections(datum, conj_search=False)
    mt = mult_table([refls[i] for i in L], [refls[i] for i in K], max_len,
                    PCanTable(datum, 0, source="kl"))
    for fmt, digest in _PINNED_RENDERS[key].items():
        text = mt.render(fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, fmt
