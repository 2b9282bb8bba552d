"""Canonical string forms and JSON helpers shared by the cache and the CLI."""

from .errors import MalformedDatum
from .hecke import HeckeElt
from .laurent import LaurentPoly
from .weyl import element_from_word, simple_reflections, translation, wid


def element_from_str(datum, s):
    """Inverse of ExtWeylElt.canonical_str."""
    try:
        word_part, trans_part = s.split(";")
        x = wid(datum)
        if word_part != "e":
            refls = simple_reflections(datum, conj_search=False)
            for tok in word_part.split("."):
                idx = int(tok)
                x = x * refls[idx].as_element
        lam = tuple(int(t) for t in trans_part.split(","))
        return x * translation(datum, lam)
    except (ValueError, IndexError) as exc:
        raise MalformedDatum(f"bad element string {s!r}: {exc}") from exc


def hecke_to_json(h):
    return {w.canonical_str(): p.to_json()
            for w, p in sorted(h.terms.items(),
                               key=lambda t: (t[0].length, t[0].canonical_str()))}


def hecke_from_json(datum, obj):
    terms = {}
    for key, pj in obj.items():
        terms[element_from_str(datum, key)] = LaurentPoly.from_json(pj)
    return HeckeElt(datum, terms)


def bimodule_to_json(m, ring):
    return {
        "degrees": list(m.degrees),
        "wordlen": m.wordlen,
        "act": [[[ring.to_str(e) for e in row] for row in mat] for mat in m.act],
        "labels": [
            [w.canonical_str(), [[ring.to_str(e) for e in vec] for vec in vecs]]
            for w, vecs in m.labels
        ],
        "char": hecke_to_json(m.char_hint) if m.char_hint is not None else None,
    }


def bimodule_from_json(real, obj):
    from .bimodule import LabeledBimodule

    ring = real.ring
    datum = real.datum
    act = tuple(
        [[ring.parse(e) for e in row] for row in mat] for mat in obj["act"]
    )
    labels = tuple(
        (element_from_str(datum, key),
         tuple(tuple(ring.parse(e) for e in vec) for vec in vecs))
        for key, vecs in obj["labels"]
    )
    hint = (hecke_from_json(datum, obj["char"])
            if obj.get("char") is not None else None)
    return LabeledBimodule(real, tuple(obj["degrees"]), act, labels,
                           wordlen=obj["wordlen"], char_hint=hint)


def parse_element_grammar(datum, text):
    """Whitespace-separated reflection names, optionally after omega:<form>."""
    toks = text.split()
    omega = None
    if toks and toks[0].startswith("omega:"):
        omega = element_from_str(datum, toks[0][len("omega:"):])
        if omega.length != 0:
            raise MalformedDatum("omega part must have length zero")
        toks = toks[1:]
    word = []
    refls = simple_reflections(datum, conj_search=False)
    for tok in toks:
        if tok == "e":
            continue
        if not tok.startswith("s"):
            raise MalformedDatum(f"bad reflection token {tok!r}")
        idx = int(tok[1:])
        if not 0 <= idx < len(refls):
            raise MalformedDatum(f"reflection index {idx} out of range")
        word.append(idx)
    return element_from_word(datum, word, omega=omega)

