import json
from pathlib import Path

import pytest

import affkl.data
from affkl import build_root_datum, check_assumptions, components, pairing
from affkl.errors import DimensionMismatch, MalformedDatum
from affkl.matutil import (
    gcd_minors_invariant_factors,
    mat_inv_int,
    smith_normal_form,
)
from affkl.rootdata import P_BOUNDS, _closure_from_simples, bundled_names


def test_gl2_tables(gl2):
    assert gl2.rank == 2
    assert set(gl2.roots) == {(1, -1), (-1, 1)}
    assert set(gl2.coroots) == {(1, -1), (-1, 1)}
    assert gl2.positive_roots == (((1, -1), (1, -1)),)


def test_a1_sc_convention(a1sc):
    assert set(a1sc.roots) == {(2,), (-2,)}
    assert set(a1sc.coroots) == {(1,), (-1,)}
    assert pairing(a1sc, (2,), (1,)) == 2


def test_pairing_examples(gl2, a1sc):
    assert pairing(gl2, (1, 0), (1, -1)) == 1
    assert pairing(gl2, (3, 5), (0, 0)) == 0
    assert pairing(a1sc, (1,), (1,)) == 1
    with pytest.raises(DimensionMismatch):
        pairing(gl2, (1,), (1, -1))


def test_malformed_diagonal():
    with pytest.raises(MalformedDatum):
        build_root_datum({
            "rank": 1, "roots": [[1], [-1]], "coroots": [[1], [-1]],
            "simple": [0],
        })


def test_malformed_closure():
    # roots not closed under reflection
    with pytest.raises(MalformedDatum):
        build_root_datum({
            "rank": 2,
            "roots": [[2, 0], [-2, 0], [0, 2]],
            "coroots": [[1, 0], [-1, 0], [0, 1]],
            "simple": [0, 2],
        })


def test_components_classification(gl2, a2, a3):
    assert components(gl2) == [((0,), "A1", (1, -1))]
    assert components(a2) == [((0, 1), "A2", (1, 1))]
    assert components(a3)[0][1] == "A3"
    prod = build_root_datum("A1xA1-sc")
    assert len(components(prod)) == 2
    b2 = build_root_datum("B2-sc")
    assert components(b2) == [((0, 1), "B2", (1, 0))]
    g2 = build_root_datum("G2-sc")
    # highest short root 2a1 + a2
    assert components(g2) == [((0, 1), "G2", (1, 0))]
    c3 = build_root_datum("C3-sc")
    assert components(c3)[0][1] == "C3"


def test_components_order_independent(a2):
    # relist the simple roots in the other order
    perm = build_root_datum({
        "name": "A2-swapped",
        "simple_roots": [(-1, 2), (2, -1)],
        "simple_coroots": [(0, 1), (1, 0)],
    })
    (idx, label, beta), = components(perm)
    assert label == "A2"
    assert beta == (1, 1)


def test_figure1_bounds():
    assert P_BOUNDS["A"](7) == 1
    assert P_BOUNDS["B"](4) == 4
    assert P_BOUNDS["C"](3) == 2
    assert P_BOUNDS["D"](5) == 2
    assert P_BOUNDS["E"](7) == 19
    assert P_BOUNDS["E"](8) == 31
    assert P_BOUNDS["G"](2) == 3


def test_assumptions_gl2_any_prime(gl2):
    for p in (2, 3, 5, 7):
        rep = check_assumptions(gl2, p)
        assert rep.all_ok, p


def test_assumptions_examples(a2):
    assert check_assumptions(a2, 2).figure1_ok
    b2 = build_root_datum("B2-sc")
    assert not check_assumptions(b2, 2).figure1_ok
    assert check_assumptions(b2, 3).figure1_ok
    g2 = build_root_datum("G2-sc")
    assert not check_assumptions(g2, 2).figure1_ok
    assert not check_assumptions(g2, 3).figure1_ok
    assert check_assumptions(g2, 5).figure1_ok


def test_figure1_is_conjunction(gl2):
    rep = check_assumptions(gl2, 3)
    assert rep.figure1_ok == all(ok for _, _, ok in rep.per_component)


def test_torsion_against_minor_gcds(gl2, a2, a1sc):
    for d in (gl2, a2, a1sc, build_root_datum("B2-sc"),
              build_root_datum("A1-adj"), build_root_datum("A3-sc")):
        cols = [list(c) for c in d.simple_coroots]
        mat = tuple(tuple(cols[j][i] for j in range(len(cols)))
                    for i in range(d.rank))
        assert smith_normal_form(mat) == gcd_minors_invariant_factors(mat)


def test_adjoint_a1_cotorsion():
    adj = build_root_datum("A1-adj")
    assert not check_assumptions(adj, 2).cotorsion_ok
    assert check_assumptions(adj, 3).cotorsion_ok


def test_json_round_trip(a2):
    rebuilt = build_root_datum(a2.to_json())
    assert rebuilt.fingerprint == a2.fingerprint


@pytest.mark.parametrize(
    "path", sorted(Path(__file__).parent.glob("data/cache_*.json")),
    ids=lambda p: p.stem)
def test_fingerprint_matches_stored_caches(path):
    doc = json.loads(path.read_text())
    for datum in (build_root_datum(doc["datum"]),
                  build_root_datum(doc["datum"]["name"])):
        assert datum.fingerprint == doc["datum_fingerprint"]
        # computed once, then an attribute of the datum
        assert vars(datum)["fingerprint"] == doc["datum_fingerprint"]


def test_mat_inv_int():
    assert mat_inv_int(((2, 1), (1, 1))) == ((1, -1), (-1, 2))
    # singular, and invertible over Q but not over the integers
    for mat in (((1, 2), (2, 4)), ((0, 0), (0, 1)), ((2, 0), (0, 1))):
        with pytest.raises(ValueError):
            mat_inv_int(mat)


# -- classification by root counts ------------------------------------------


def _cartan(t, k):
    """Bourbaki's Cartan matrix a_ij = <alpha_i^vee, alpha_j> of type t_k."""
    a = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
    if t == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][:k - 2] + [(1, 3)]
    elif t == "D":
        edges = [(i, i + 1) for i in range(k - 2)] + [(k - 3, k - 1)]
    else:
        edges = [(i, i + 1) for i in range(k - 1)]
    for i, j in edges:
        a[i][j] = a[j][i] = -1
    if t == "B":
        a[k - 2][k - 1] = -2
    elif t == "C":
        a[k - 1][k - 2] = -2
    elif t == "F":
        a[1][2] = -2
    elif t == "G":
        a[1][0] = -3
    return a


def _sc_datum(cartan, order=None):
    """Simply connected datum: the simple coroots are the standard basis and
    the simple roots the rows of the Cartan matrix, listed in the given order."""
    n = len(cartan)
    order = order or range(n)
    return build_root_datum({
        "simple_roots": [cartan[i] for i in order],
        "simple_coroots": [[int(i == j) for j in range(n)] for i in order]})


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


# (type, rank) -> (label, dominance-maximal short root in X coordinates)
CARTAN_TYPES = {
    ("A", 1): ("A1", (2,)),
    ("A", 2): ("A2", (1, 1)),
    ("A", 3): ("A3", (1, 0, 1)),
    ("A", 4): ("A4", (1, 0, 0, 1)),
    ("A", 5): ("A5", (1, 0, 0, 0, 1)),
    ("A", 6): ("A6", (1, 0, 0, 0, 0, 1)),
    ("A", 7): ("A7", (1, 0, 0, 0, 0, 0, 1)),
    ("A", 8): ("A8", (1, 0, 0, 0, 0, 0, 0, 1)),
    ("B", 2): ("B2", (1, 0)),
    ("B", 3): ("B3", (1, 0, 0)),
    ("B", 4): ("B4", (1, 0, 0, 0)),
    ("B", 5): ("B5", (1, 0, 0, 0, 0)),
    ("B", 6): ("B6", (1, 0, 0, 0, 0, 0)),
    ("B", 7): ("B7", (1, 0, 0, 0, 0, 0, 0)),
    ("B", 8): ("B8", (1, 0, 0, 0, 0, 0, 0, 0)),
    ("C", 3): ("C3", (0, 1, 0)),
    ("C", 4): ("C4", (0, 1, 0, 0)),
    ("C", 5): ("C5", (0, 1, 0, 0, 0)),
    ("C", 6): ("C6", (0, 1, 0, 0, 0, 0)),
    ("C", 7): ("C7", (0, 1, 0, 0, 0, 0, 0)),
    ("C", 8): ("C8", (0, 1, 0, 0, 0, 0, 0, 0)),
    ("D", 4): ("D4", (0, 1, 0, 0)),
    ("D", 5): ("D5", (0, 1, 0, 0, 0)),
    ("D", 6): ("D6", (0, 1, 0, 0, 0, 0)),
    ("D", 7): ("D7", (0, 1, 0, 0, 0, 0, 0)),
    ("D", 8): ("D8", (0, 1, 0, 0, 0, 0, 0, 0)),
    ("E", 6): ("E6", (0, 1, 0, 0, 0, 0)),
    ("E", 7): ("E7", (1, 0, 0, 0, 0, 0, 0)),
    ("E", 8): ("E8", (0, 0, 0, 0, 0, 0, 0, 1)),
    ("F", 4): ("F4", (0, 0, 0, 1)),
    ("G", 2): ("G2", (1, 0)),
}


@pytest.mark.parametrize("t, k", sorted(CARTAN_TYPES))
def test_components_of_cartan_types(t, k):
    label, beta = CARTAN_TYPES[t, k]
    assert components(_sc_datum(_cartan(t, k))) == [
        (tuple(range(k)), label, beta)]


def test_components_of_product_and_permuted_product():
    cartan = _block_diagonal(_cartan("B", 2), _cartan("G", 2), _cartan("A", 1),
                             _cartan("C", 3))
    assert components(_sc_datum(cartan)) == [
        ((0, 1), "B2", (1, 0, 0, 0, 0, 0, 0, 0)),
        ((2, 3), "G2", (0, 0, 1, 0, 0, 0, 0, 0)),
        ((4,), "A1", (0, 0, 0, 0, 2, 0, 0, 0)),
        ((5, 6, 7), "C3", (0, 0, 0, 0, 0, 0, 1, 0))]
    assert components(_sc_datum(cartan, order=[3, 0, 7, 5, 1, 2, 6, 4])) == [
        ((0, 5), "G2", (0, 0, 1, 0, 0, 0, 0, 0)),
        ((1, 4), "B2", (1, 0, 0, 0, 0, 0, 0, 0)),
        ((2, 3, 6), "C3", (0, 0, 0, 0, 0, 0, 1, 0)),
        ((7,), "A1", (0, 0, 0, 0, 2, 0, 0, 0))]


def test_components_of_non_reduced_bc2():
    # simple roots e1 - e2 and e2; 2e1 and 2e2 are roots too, and are skipped
    # when counting: the component is B2 with highest short root e1
    bc2 = build_root_datum({
        "name": "BC2", "rank": 2,
        "roots": [[1, -1], [0, 1], [1, 0], [1, 1], [2, 0], [0, 2],
                  [-1, 1], [0, -1], [-1, 0], [-1, -1], [-2, 0], [0, -2]],
        "coroots": [[1, -1], [0, 2], [2, 0], [1, 1], [1, 0], [0, 1],
                    [-1, 1], [0, -2], [-2, 0], [-1, -1], [-1, 0], [0, -1]],
        "simple": [0, 1]})
    assert components(bc2) == [((0, 1), "B2", (1, 0))]


@pytest.mark.parametrize("datum, p, text", [
    ("GL3", 2, "X / ZR free:              ok\n"
               "X^ / ZR^ p-torsion free:  ok\n"
               "component A2: p > 1  ok"),
    (("B", 3), 3, "X / ZR free:              FAIL\n"
                  "X^ / ZR^ p-torsion free:  ok\n"
                  "component B3: p > 3  FAIL"),
    ("C3-sc", 3, "X / ZR free:              FAIL\n"
                 "X^ / ZR^ p-torsion free:  ok\n"
                 "component C3: p > 2  ok"),
    (("D", 4), 2, "X / ZR free:              FAIL\n"
                  "X^ / ZR^ p-torsion free:  ok\n"
                  "component D4: p > 2  FAIL"),
    (("E", 6), 5, "X / ZR free:              FAIL\n"
                  "X^ / ZR^ p-torsion free:  ok\n"
                  "component E6: p > 3  ok"),
    (("F", 4), 3, "X / ZR free:              ok\n"
                  "X^ / ZR^ p-torsion free:  ok\n"
                  "component F4: p > 3  FAIL"),
    ("G2-sc", 5, "X / ZR free:              ok\n"
                 "X^ / ZR^ p-torsion free:  ok\n"
                 "component G2: p > 3  ok"),
], ids=["GL3", "B3", "C3-sc", "D4", "E6", "F4", "G2-sc"])
def test_assumption_report_per_letter(datum, p, text):
    d = (build_root_datum(datum) if isinstance(datum, str)
         else _sc_datum(_cartan(*datum)))
    assert check_assumptions(d, p).render() == text


# -- the bundled data ---------------------------------------------------------


def test_bundled_names_are_the_json_stems():
    stems = sorted(f.stem for f in Path(affkl.data.__file__).parent.glob("*.json"))
    assert bundled_names() == stems
    assert len(stems) == 10
    with pytest.raises(MalformedDatum) as exc:
        build_root_datum("E9-sc")
    assert str(exc.value) == f"unknown datum 'E9-sc'; known: {stems}"


@pytest.mark.parametrize("name", bundled_names())
def test_bundled_datum_is_the_closure_of_its_simples(name):
    d = build_root_datum(name)
    assert d.name == name
    roots, coroots = _closure_from_simples(list(d.simple_roots),
                                           list(d.simple_coroots))
    assert len(roots) == len(d.roots)
    assert set(zip(roots, coroots)) == set(zip(d.roots, d.coroots))


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "JSON object"),
    ({"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]]}, "'simple'"),
    ({"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]], "simple": [5]},
     "simple indices"),
    ({"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]], "simple": [0, 0]},
     "simple indices"),
    ({"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]], "simple": [-1]},
     "simple indices"),
    ({"rank": 1, "roots": 2, "coroots": [[1], [-1]], "simple": [0]},
     "malformed datum document"),
], ids=["array", "no-simple", "out-of-range", "repeated", "negative",
        "not-a-table"])
def test_malformed_documents(doc, message):
    with pytest.raises(MalformedDatum, match=message):
        build_root_datum(doc)
