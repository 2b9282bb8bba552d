import json
from pathlib import Path

import pytest

from affkl import build_root_datum, check_assumptions, components, pairing
from affkl.errors import DimensionMismatch, MalformedDatum
from affkl.matutil import (
    gcd_minors_invariant_factors,
    mat_inv_int,
    smith_normal_form,
)
from affkl.rootdata import P_BOUNDS


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
