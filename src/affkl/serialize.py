"""Canonical string forms and JSON helpers shared by the cache and the CLI."""

from json.encoder import encode_basestring_ascii

from .errors import MalformedDatum
from .hecke import HeckeElt
from .laurent import LaurentPoly
from .weyl import element_from_word, simple_reflections, translation


def element_from_str(datum, s):
    """Inverse of ExtWeylElt.canonical_str: the least word of the finite
    part, in simple-root indices ("e" when empty), then the translation.
    Any other spelling of an element raises MalformedDatum."""
    try:
        word_part, trans_part = s.split(";")
        word = ([] if word_part == "e"
                else [int(tok) for tok in word_part.split(".")])
        lam = tuple(int(t) for t in trans_part.split(","))
    except ValueError as exc:
        raise MalformedDatum(f"bad element string {s!r}: {exc}") from exc
    if len(lam) != datum.rank or not all(0 <= i < datum.nsimple for i in word):
        raise MalformedDatum(
            f"bad element string {s!r}: expected simple-root indices below "
            f"{datum.nsimple} and {datum.rank} coordinates")
    w = element_from_word(datum, word) * translation(datum, lam)
    # one spelling per element, so that two keys never name the same one
    if w.canonical_str() != s:
        raise MalformedDatum(f"bad element string {s!r}: the element's "
                             f"canonical spelling is {w.canonical_str()!r}")
    return w


def hecke_from_json(datum, obj):
    """Inverse of HeckeElt.to_json.  Only an object of element strings to
    nonzero coefficient maps (LaurentPoly.from_json) parses; anything else
    raises MalformedDatum, ValueError or TypeError."""
    if type(obj) is not dict:
        raise TypeError(
            f"a Hecke element must be an object, not {type(obj).__name__}")
    terms = {}
    for key, pj in obj.items():
        p = LaurentPoly.from_json(pj)
        if not p:
            raise ValueError(f"zero coefficient at {key!r}")
        terms[element_from_str(datum, key)] = p
    return HeckeElt._of(datum, terms)


def bimodule_to_json(m, ring):
    return {
        "degrees": list(m.degrees),
        "wordlen": m.wordlen,
        "act": [[[ring.to_str(e) for e in row] for row in mat] for mat in m.act],
        "labels": [
            [w.canonical_str(), [[ring.to_str(e) for e in vec] for vec in vecs]]
            for w, vecs in m.labels
        ],
        "char": m.char_hint.to_json() if m.char_hint is not None else None,
    }


def bimodule_from_json(real, obj):
    from .bimodule import LabeledBimodule

    ring = real.ring
    datum = real.datum
    # one polynomial per distinct string: nothing mutates a polynomial in
    # place, so its entries may share it, as they share ring.zero
    polys = {}

    def parse(e):
        f = polys.get(e)
        if f is None:
            f = polys[e] = ring.parse(e)
        return f

    act = tuple(
        [[parse(e) for e in row] for row in mat] for mat in obj["act"]
    )
    labels = tuple(
        (element_from_str(datum, key),
         tuple(tuple(parse(e) for e in vec) for vec in vecs))
        for key, vecs in obj["labels"]
    )
    hint = (hecke_from_json(datum, obj["char"])
            if obj.get("char") is not None else None)
    return LabeledBimodule(real, tuple(obj["degrees"]), act, labels,
                           wordlen=obj["wordlen"], char_hint=hint)


def json_text(x, indent=1):
    """json.dumps(x, indent=indent, sort_keys=True) for documents of dicts
    with str keys, lists, strs, ints and None, without the pure-Python
    encoder that the indent option selects.  Any other type raises
    TypeError."""
    return _json_text(x, "\n", " " * indent)


# the encoders of the scalar types, which _json_text also applies inline to
# the items of a list
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            type(None): lambda x: "null"}


def _json_text(x, pad, step):
    t = type(x)
    enc = _SCALARS.get(t)
    if enc is not None:
        return enc(x)
    inner = pad + step
    if t is dict:
        if any(type(k) is not str for k in x):
            raise TypeError("keys must be str")
        return "{" + inner + ("," + inner).join(
            [f"{encode_basestring_ascii(k)}: {_json_text(x[k], inner, step)}"
             for k in sorted(x)]) + pad + "}" if x else "{}"
    if t is list:
        scalar = _SCALARS.get
        return "[" + inner + ("," + inner).join(
            [enc(v) if (enc := scalar(type(v))) else _json_text(v, inner, step)
             for v in x]) + pad + "]" if x else "[]"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def parse_reflection(datum, tok):
    """The simple reflection named by a token s<i>."""
    if not tok.startswith("s"):
        raise MalformedDatum(f"bad reflection token {tok!r}")
    idx = int(tok[1:])
    refls = simple_reflections(datum, conj_search=False)
    if not 0 <= idx < len(refls):
        raise MalformedDatum(f"reflection index {idx} out of range")
    return refls[idx]


def parse_element_grammar(datum, text):
    """Whitespace-separated reflection names, optionally after omega:<form>."""
    toks = text.split()
    omega = None
    if toks and toks[0].startswith("omega:"):
        omega = element_from_str(datum, toks[0][len("omega:"):])
        if omega.length != 0:
            raise MalformedDatum("omega part must have length zero")
        toks = toks[1:]
    word = [parse_reflection(datum, tok).index for tok in toks if tok != "e"]
    return element_from_word(datum, word, omega=omega)
