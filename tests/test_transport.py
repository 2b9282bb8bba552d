"""Omega-orbit transport: one element per orbit goes through the word, the
others are F_omega * rep(u0) * F_omega^-1 with p-b relabelled.

Order-3 rotations (GL3, A2-sc) are covered as well as GL2, where omega^2 is
central, so that a mix-up between omega and omega^-1 shows.
"""

import random

import pytest

from affkl import build_root_datum
from affkl import cache as cachemod
from affkl.bimodule import f_object, tensor, transport
from affkl.errors import NotLengthZero
from affkl.soergel import PCanTable, is_shifted_iso
from affkl.weyl import (
    enumerate_elements,
    omega_elements,
    simple_reflections,
    wid,
)

_TABLES = {}


class WordTable(PCanTable):
    """Every element through expansion_via_word: the orbit choice is the
    identity, as before orbit transport."""

    def orbit_least(self, u):
        return u, wid(self.datum)


def _table(name, p, max_len, cls=PCanTable):
    """A table of every element up to max_len, shared within the module."""
    key = (name, p, max_len, cls)
    if key not in _TABLES:
        table = cls(build_root_datum(name), p)
        for u in enumerate_elements(table.datum, max_len):
            table.ensure(u)
        _TABLES[key] = table
    return _TABLES[key]


def _snapshot(table):
    """(polynomial, copy) for every polynomial dict that the table's
    representatives, its B_s objects and its ring's substitution images
    hold: the copies show any later in-place change."""
    real = table.real
    out = []
    for m in (*table.reps.values(), *real._b_cache.values()):
        for mat in m.act:
            for row in mat:
                out.extend((f, dict(f)) for f in row)
        for _, vecs in m.labels:
            for v in vecs:
                out.extend((f, dict(f)) for f in v)
    for images in real.ring._images.values():
        out.extend((f, dict(f)) for f in images.values())
    return out


@pytest.mark.parametrize("name, p, first, last", [
    ("GL3", 2, 3, 4), ("A2-sc", 0, 2, 3)])
def test_shared_polynomials_stay_unchanged(name, p, first, last, tmp_path):
    """Kernels return inputs and kept images themselves, so matrix entries,
    label vectors and transported representatives share polynomial dicts:
    computing more, saving, loading and extending the loaded table must
    leave every polynomial seen before as it was."""
    datum = build_root_datum(name)
    table = PCanTable(datum, p)
    for u in enumerate_elements(datum, first):
        table.ensure(u)
    assert table.stats["transported"] and table.real.ring._images
    snaps = _snapshot(table)
    for u in enumerate_elements(datum, last):
        table.ensure(u)
    snaps += _snapshot(table)
    path = tmp_path / "cache.json"
    cachemod.save_table(table, str(path))
    loaded = cachemod.load_table(str(path), datum=datum)
    snaps += _snapshot(loaded)
    for u in enumerate_elements(datum, last + 1):
        loaded.ensure(u)
    assert loaded.stats["transported"]
    changed = [before for f, before in snaps if f != before]
    assert not changed, f"{len(changed)} of {len(snaps)} polynomials changed"


@pytest.mark.parametrize("name, p, max_len", [
    ("GL2", 2, 4), ("GL2", 3, 3), ("GL3", 2, 3), ("A2-sc", 0, 3),
    ("B2-sc", 0, 3)])
def test_transport_is_the_double_tensor(name, p, max_len):
    table = _table(name, p, max_len)
    for m in table.reps.values():
        for om in omega_elements(table.datum, 1):
            got = transport(m, om)
            want = tensor(tensor(f_object(table.real, om), m),
                          f_object(table.real, om.inverse()))
            assert got.degrees == want.degrees
            assert got.act == want.act
            assert got.labels == want.labels
            assert got.char_hint == want.char_hint
            assert got.wordlen == want.wordlen
    s = simple_reflections(table.datum, conj_search=False)[0]
    with pytest.raises(NotLengthZero):
        transport(m, s.as_element)


@pytest.mark.parametrize("name, p, max_len", [
    ("GL2", 2, 6), ("GL2", 3, 5), ("GL3", 2, 4), ("A2-sc", 0, 4),
    ("B2-sc", 0, 3)])
def test_transported_elements_match_the_word_path(name, p, max_len):
    table = _table(name, p, max_len)
    word = _table(name, p, max_len, WordTable)
    assert table.entries == word.entries
    transported = [u for u in table.entries
                   if table.orbit_least(u)[0] != u]
    assert len(transported) == table.stats["transported"] > 0
    assert word.stats["transported"] == 0
    for u in transported:
        rep = table.reps[u]
        rep.validate()
        assert rep.char_hint == table.entries[u]
        assert is_shifted_iso(rep, word.reps[u], 0), u.canonical_str()
    # an order-3 Omega transports by both omega and omega^-1
    omegas = {table.orbit_least(u)[1] for u in transported}
    order = len(omega_elements(table.datum, 1))
    if order == 3:
        assert len({om.fin for om in omegas}) == 2


def test_orbit_least_is_least_and_conjugates(gl2, a2):
    for datum in (gl2, a2, build_root_datum("GL3")):
        table = PCanTable(datum, 2 if datum is gl2 else 0)
        for u in enumerate_elements(datum, 3):
            u0, om = table.orbit_least(u)
            assert om.length == 0
            assert om * u0 * om.inverse() == u
            assert table.orbit_least(u0) == (u0, wid(datum))
            assert u0.sort_key() <= u.sort_key()
            for other in omega_elements(datum, 1):
                v = other * u * other.inverse()
                assert table.orbit_least(v)[0] == u0


class WalkLog(PCanTable):
    """Records each orbit walk as (u, u0)."""

    def orbit_least(self, u):
        out = super().orbit_least(u)
        self.walks.append((u, out[0]))
        return out


def test_one_orbit_walk_per_computed_element():
    # longest first, so most orbits are entered through a non-least element
    # whose least element is not stored yet
    table = WalkLog(build_root_datum("GL3"), 2)
    table.walks = []
    for u in reversed(enumerate_elements(table.datum, 3)):
        table.ensure(u)
    assert table.stats["transported"] > 0
    # a least element found by another element's walk is stored then, and
    # is not walked again
    found = set()
    for u, u0 in table.walks:
        assert u not in found, u
        found.add(u0)
    walked = [u for u, _ in table.walks]
    assert len(set(walked)) == len(walked)
    assert set(walked) | found == set(table.entries) - {wid(table.datum)}
    assert table.stats["computed"] == len(table.entries)


@pytest.mark.parametrize("name, p, max_len", [
    ("GL3", 2, 3), ("A2-sc", 0, 3), ("GL2", 3, 4)])
def test_shuffled_ensure_orders_save_identical_documents(
        name, p, max_len, tmp_path):
    datum = build_root_datum(name)
    elements = enumerate_elements(datum, max_len)
    docs = []
    for seed in (1, 2):
        order = list(elements)
        random.Random(seed).shuffle(order)
        table = PCanTable(datum, p)
        for u in order:
            table.ensure(u)
        path = tmp_path / f"order{seed}.json"
        cachemod.save_table(table, str(path))
        docs.append(path.read_bytes())
    assert docs[0] == docs[1]


@pytest.mark.parametrize("name, p, max_len", [("G2-sc", 0, 3),
                                              ("A1-adj", 3, 4)])
def test_trivial_omega_transports_nothing(name, p, max_len):
    table = _table(name, p, max_len)
    assert omega_elements(table.datum, 1) == [wid(table.datum)]
    assert table.stats["transported"] == 0
    for u in table.entries:
        assert table.orbit_least(u) == (u, wid(table.datum))
