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

import json
from pathlib import Path

import pytest

from affkl import build_root_datum
from affkl import cache as cachemod
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
