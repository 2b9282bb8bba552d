"""Persistence of expansion tables as versioned JSON documents."""

import hashlib
import json
import os
import random

from .errors import CacheCorrupt
from .serialize import (
    bimodule_from_json,
    bimodule_to_json,
    element_from_str,
    hecke_from_json,
    hecke_to_json,
)
from .soergel import PCanTable, is_shifted_iso

FORMAT_VERSION = 1


def default_cache_path(datum, char, directory="affkl_cache"):
    return os.path.join(directory, f"{datum.fingerprint}_p{char}.json")


def save_table(table, path):
    doc = {
        "format": FORMAT_VERSION,
        "kind": "pcan-table",
        "datum": table.datum.to_json(),
        "datum_fingerprint": table.datum.fingerprint,
        "characteristic": table.char,
        "source": table.source,
        "realization_hash": table.realization_hash(),
        "entries": {},
        "reps": {},
    }
    rhash = table.realization_hash()
    for w in sorted(table.entries, key=lambda w: (w.length, w.canonical_str())):
        doc["entries"][w.canonical_str()] = {
            "rhash": rhash,
            "coeffs": hecke_to_json(table.entries[w]),
        }
    if table.source == "soergel":
        ring = table.real.ring
        for w in sorted(table.reps, key=lambda w: (w.length, w.canonical_str())):
            doc["reps"][w.canonical_str()] = bimodule_to_json(table.reps[w], ring)
    _write_doc(path, doc)


def _write_doc(path, doc):
    """Write doc as JSON to a temporary file beside path, then rename it over
    path, so a crash mid-write leaves the old document intact."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_table(path, datum=None):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("kind") != "pcan-table" or doc.get("format") != FORMAT_VERSION:
        raise CacheCorrupt(f"{path}: unrecognized cache document")
    from .rootdata import build_root_datum

    if datum is None:
        datum = build_root_datum(doc["datum"])
    if datum.fingerprint != doc["datum_fingerprint"]:
        raise CacheCorrupt(f"{path}: datum fingerprint mismatch")
    table = PCanTable(datum, doc["characteristic"], source=doc["source"])
    if table.realization_hash() != doc["realization_hash"]:
        raise CacheCorrupt(f"{path}: realization hash mismatch")
    rhash = table.realization_hash()
    for key, entry in doc["entries"].items():
        if entry.get("rhash") != rhash:
            continue
        w = element_from_str(datum, key)
        table.entries[w] = hecke_from_json(datum, entry["coeffs"])
    for key, repj in doc.get("reps", {}).items():
        w = element_from_str(datum, key)
        table.reps[w] = bimodule_from_json(table.real, repj)
    return table


def file_hash(path):
    if not os.path.exists(path):
        return ""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def inspect(path):
    with open(path) as fh:
        doc = json.load(fh)
    return {
        "path": path,
        "datum": doc.get("datum", {}).get("name") or doc.get("datum_fingerprint"),
        "fingerprint": doc.get("datum_fingerprint"),
        "p": doc.get("characteristic"),
        "source": doc.get("source"),
        "entries": len(doc.get("entries", {})),
        "reps": len(doc.get("reps", {})),
        "realization_hash": doc.get("realization_hash"),
        "sha256": file_hash(path),
    }


def verify(path, sample=None):
    """Recompute entries of a stored table and compare.

    With sample=None every entry is recomputed (in increasing length, so the
    recursion reuses its own fresh results); otherwise `sample` entries are
    drawn with a seed derived from the fingerprint.  The stored representative
    of each checked key must be a valid bimodule isomorphic to the recomputed
    one.  Returns the list of keys checked; raises CacheCorrupt naming the
    first mismatching key.
    """
    stored = load_table(path)
    fresh = PCanTable(stored.datum, stored.char, source=stored.source)
    keys = sorted(stored.entries, key=lambda w: (w.length, w.canonical_str()))
    if sample is not None and sample < len(keys):
        rng = random.Random(int(stored.datum.fingerprint[:8], 16))
        keys = sorted(rng.sample(keys, sample),
                      key=lambda w: (w.length, w.canonical_str()))
    for w in keys:
        expected = fresh.ensure(w)
        if expected != stored.entries[w]:
            raise CacheCorrupt(
                f"entry {w.canonical_str()} disagrees with recomputation")
        if w in stored.reps:
            _verify_rep(w, stored.reps[w], fresh.reps[w])
    return [w.canonical_str() for w in keys]


def _verify_rep(w, rep, expected):
    """Raise CacheCorrupt unless rep is a valid bimodule isomorphic (at shift
    0) to the recomputed representative."""
    try:
        rep.validate()
    except ValueError as exc:
        raise CacheCorrupt(
            f"representative {w.canonical_str()} is invalid: {exc}") from exc
    if not is_shifted_iso(rep, expected, 0):
        raise CacheCorrupt(f"representative {w.canonical_str()} is not "
                           f"isomorphic to the recomputed one")


def gc(path):
    """Drop entries whose recorded realization hash is stale; rewrite."""
    with open(path) as fh:
        doc = json.load(fh)
    from .rootdata import build_root_datum

    datum = build_root_datum(doc["datum"])
    table = PCanTable(datum, doc["characteristic"], source=doc["source"])
    rhash = table.realization_hash()
    before = len(doc.get("entries", {}))
    doc["entries"] = {k: v for k, v in doc.get("entries", {}).items()
                      if v.get("rhash") == rhash}
    if doc.get("realization_hash") != rhash:
        doc["reps"] = {}
        doc["realization_hash"] = rhash
    _write_doc(path, doc)
    return {"dropped": before - len(doc["entries"]), "kept": len(doc["entries"])}
