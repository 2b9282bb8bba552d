"""Saved cache documents, byte for byte, against committed golden files.

The goldens in tests/data pin the stored expansions and the stored
representative bimodules, which later computations load and build on.
A2-sc at p=0 up to length 3 is the first to pin representatives cut out by
an End^0 split over Q (three of them; none up to length 2).  GL2 at p=2 up
to length 6 pins representatives cut from a quotient k x Mat(2, k) of an
End^0 with a nonzero radical.

The goldens in tests/data/untransported were saved when every element went
through its own word.  Representatives transported along an Omega-orbit
differ from them in bytes, so against those the test asks for the same
header and entries, the same representative keys, degrees and characters,
and representatives isomorphic at shift 0.
"""

import hashlib
import json
from pathlib import Path

import pytest

from affkl import build_root_datum
from affkl import cache as cachemod
from affkl.serialize import json_text
from affkl.soergel import PCanTable, is_shifted_iso
from affkl.weyl import enumerate_elements

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name,p,max_len", [
    ("GL2", 2, 3), ("GL2", 3, 3), ("GL3", 2, 2), ("A2-sc", 0, 2),
    ("A2-sc", 0, 3), ("GL2", 2, 6)])
def test_saved_document_matches_golden(name, p, max_len, tmp_path):
    datum = build_root_datum(name)
    table = PCanTable(datum, p)
    for u in enumerate_elements(datum, max_len):
        table.ensure(u)
    path = tmp_path / "cache.json"
    cachemod.save_table(table, str(path))
    stem = f"cache_{name}_p{p}_len{max_len}.json"
    assert path.read_bytes() == (DATA / stem).read_bytes()

    old_path = DATA / "untransported" / stem
    doc = json.loads(path.read_text())
    old = json.loads(old_path.read_text())
    reps, old_reps = doc.pop("reps"), old.pop("reps")
    assert (json.dumps(doc, indent=1, sort_keys=True)
            == json.dumps(old, indent=1, sort_keys=True))
    assert sorted(reps) == sorted(old_reps)
    for key, rep in reps.items():
        assert rep["degrees"] == old_reps[key]["degrees"], key
        assert rep["char"] == old_reps[key]["char"], key
    old_table = cachemod.load_table(str(old_path), datum=datum)
    for w, rep in table.reps.items():
        assert is_shifted_iso(rep, old_table.reps[w], 0), w.canonical_str()


@pytest.mark.parametrize("name,p,max_len,size,sha256", [
    ("GL3", 2, 4, 228083,
     "2caa89f3cbbf025e114060ea7859e593f2daa4c2d4fb00f3f16806b8a6f53608"),
    ("GL2", 3, 5, 42698,
     "e0282c5447d5119782cc5ada9743897e80291cf262b0a59431dc17b03d2be943"),
    ("A2-sc", 0, 4, 202917,
     "41c15538d388c5d7741ea052dfd8ea7a95aa580a5bcb7ca3f26bc7868f31e7f8"),
])
def test_saved_document_hash_at_workload_sizes(name, p, max_len, size, sha256,
                                               tmp_path):
    """Saved documents too large for a golden file, pinned by SHA-256: GL3
    representatives of rank above 4 and the transported summands of its
    length-3 split, GL2 p=3 up to length 5 and A2-sc p=0 up to length 4."""
    datum = build_root_datum(name)
    table = PCanTable(datum, p)
    for u in enumerate_elements(datum, max_len):
        table.ensure(u)
    path = tmp_path / "cache.json"
    cachemod.save_table(table, str(path))
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha256)


def _writer_docs(tmp_path):
    for path in sorted(DATA.glob("cache_*.json")):
        yield path.name, json.loads(path.read_text())
    for name, p, max_len in (("GL2", 3, 4), ("A2-sc", 0, 3)):
        datum = build_root_datum(name)
        table = PCanTable(datum, p)
        for u in enumerate_elements(datum, max_len):
            table.ensure(u)
        path = tmp_path / f"{name}_p{p}.json"
        cachemod.save_table(table, str(path))
        yield path.name, json.loads(path.read_text())


def test_writer_matches_json_dumps(tmp_path):
    for name, doc in _writer_docs(tmp_path):
        assert (json_text(doc)
                == json.dumps(doc, indent=1, sort_keys=True)), name
    odd = {"b": [None, -2 ** 70, "\u00e9\"\n\x01"], "a": {}, "c": [[]]}
    for indent in (1, 2):
        assert json_text(odd, indent) == json.dumps(odd, indent=indent,
                                                    sort_keys=True)
    for bad in (1.5, True, (1, 2), {1: 2}, {"a": [set()]}):
        with pytest.raises(TypeError):
            json_text(bad)


def test_gc_leaves_a_document_it_cannot_write(tmp_path):
    table = PCanTable(build_root_datum("GL2"), 2)
    for u in enumerate_elements(table.datum, 2):
        table.ensure(u)
    path = tmp_path / "cache.json"
    cachemod.save_table(table, str(path))
    doc = json.loads(path.read_text())
    doc["entries"][sorted(doc["entries"])[0]]["coeffs"] = 1.5
    path.write_text(json.dumps(doc))
    damaged = path.read_bytes()
    with pytest.raises(cachemod.CacheCorrupt):
        cachemod.gc(str(path))
    assert path.read_bytes() == damaged
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
