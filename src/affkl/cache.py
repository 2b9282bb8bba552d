"""Persistence of expansion tables as versioned JSON documents."""

import contextlib
import hashlib
import json
import os
import random

from .errors import CacheCorrupt, MalformedDatum
from .serialize import (
    bimodule_from_json,
    bimodule_to_json,
    element_from_str,
    hecke_from_json,
    json_text,
)
from .soergel import PCanTable, is_shifted_iso
from .weyl import ExtWeylElt

FORMAT_VERSION = 1


def default_cache_path(datum, char, directory="affkl_cache"):
    return os.path.join(directory, f"{datum.fingerprint}_p{char}.json")


def save_table(table, path):
    rhash = table.realization_hash()
    doc = {
        "format": FORMAT_VERSION,
        "kind": "pcan-table",
        "datum": table.datum.to_json(),
        "datum_fingerprint": table.datum.fingerprint,
        "characteristic": table.char,
        "source": table.source,
        "realization_hash": rhash,
        "entries": {},
        "reps": {},
    }
    for w in sorted(table.entries, key=ExtWeylElt.sort_key):
        doc["entries"][w.canonical_str()] = {
            "rhash": rhash,
            "coeffs": table.entries[w].to_json(),
        }
    if table.source == "soergel":
        ring = table.real.ring
        for w in sorted(table.reps, key=ExtWeylElt.sort_key):
            doc["reps"][w.canonical_str()] = bimodule_to_json(table.reps[w], ring)
    _write_doc(path, doc)


def _write_doc(path, doc):
    """Write doc as JSON to a temporary file beside path, then rename it over
    path, so a crash mid-write leaves the old document intact."""
    text = json_text(doc) + "\n"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_doc(path, datum=None):
    """The document at path and the empty table its header describes (datum,
    or the stored one when None).  A document that does not parse, or whose
    header (datum, datum_fingerprint, characteristic, source,
    realization_hash, entries, reps) is missing or malformed, raises
    CacheCorrupt."""
    with _parsing(path, "header"):
        with open(path) as fh:
            doc = json.load(fh)
        if (not isinstance(doc, dict) or doc.get("kind") != "pcan-table"
                or doc.get("format") != FORMAT_VERSION):
            raise CacheCorrupt(f"{path}: unrecognized cache document")
        from .rootdata import build_root_datum

        if datum is None:
            datum = build_root_datum(doc["datum"])
        if datum.fingerprint != doc["datum_fingerprint"]:
            raise CacheCorrupt(f"{path}: datum fingerprint mismatch")
        table = PCanTable(datum, doc["characteristic"], source=doc["source"])
        if not (isinstance(doc["datum"], dict)
                and isinstance(doc["realization_hash"], str)
                and isinstance(doc["entries"], dict)
                and all(isinstance(e, dict) for e in doc["entries"].values())
                and isinstance(doc.get("reps", {}), dict)):
            raise CacheCorrupt(f"{path}: malformed datum, realization_hash, "
                               "entries or reps")
    return doc, table


def load_table(path, datum=None):
    doc, table = _read_doc(path, datum)
    datum = table.datum
    if table.realization_hash() != doc["realization_hash"]:
        raise CacheCorrupt(f"{path}: realization hash mismatch")
    rhash = table.realization_hash()
    for key, entry in doc["entries"].items():
        if entry.get("rhash") != rhash:
            continue
        with _parsing(path, key):
            w = element_from_str(datum, key)
            table.entries[w] = hecke_from_json(datum, entry["coeffs"])
    for key, repj in doc.get("reps", {}).items():
        with _parsing(path, key):
            w = element_from_str(datum, key)
            rep = bimodule_from_json(table.real, repj)
        # ensure() builds ch(rep(w)·B_s) from this, and may skip the split on it
        if w in table.entries and rep.char_hint != table.entries[w]:
            raise CacheCorrupt(
                f"{path}: representative {key} has a character other than "
                f"its entry")
        table.reps[w] = rep
    # ensure() reads the representative of every entry below its target
    missing = set(table.entries) - set(table.reps) if table.real else set()
    if missing:
        w = min(missing, key=ExtWeylElt.sort_key)
        raise CacheCorrupt(
            f"{path}: entry {w.canonical_str()} has no stored representative")
    return table


@contextlib.contextmanager
def _parsing(path, key):
    """Re-raise an error in parsing the document's data under key as
    CacheCorrupt naming the key: a damaged file is not a bad configuration."""
    try:
        yield
    except (MalformedDatum, ValueError, KeyError, IndexError, TypeError,
            ZeroDivisionError) as exc:
        raise CacheCorrupt(
            f"{path}: stored {key!r} does not parse: {exc}") from exc


def file_hash(path):
    if not os.path.exists(path):
        return ""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def inspect(path):
    doc, table = _read_doc(path)
    return {
        "path": path,
        "datum": table.datum.name or table.datum.fingerprint,
        "fingerprint": table.datum.fingerprint,
        "p": table.char,
        "source": table.source,
        "entries": len(doc["entries"]),
        "reps": len(doc.get("reps", {})),
        "realization_hash": doc["realization_hash"],
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
    keys = sorted(stored.entries, key=ExtWeylElt.sort_key)
    if sample is not None and sample < len(keys):
        rng = random.Random(int(stored.datum.fingerprint[:8], 16))
        keys = sorted(rng.sample(keys, sample), key=ExtWeylElt.sort_key)
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
    doc, table = _read_doc(path)
    rhash = table.realization_hash()
    before = len(doc["entries"])
    doc["entries"] = {k: v for k, v in doc["entries"].items()
                      if v.get("rhash") == rhash}
    if doc["realization_hash"] != rhash:
        doc["reps"] = {}
        doc["realization_hash"] = rhash
    # a value the format never holds (a float, a bool) is damage, too
    with _parsing(path, "entries"):
        _write_doc(path, doc)
    return {"dropped": before - len(doc["entries"]), "kept": len(doc["entries"])}
