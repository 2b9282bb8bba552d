"""Root data: explicit root/coroot tables, components, and assumption checks.

A datum is stored with full root and coroot tables (index-aligned) so that
non-semisimple lattices such as GL_n are first-class.  Positive roots are the
ones whose coordinates in the simple basis are all nonnegative.  The bundled
data live only in the data/*.json documents, and every datum, bundled or
explicit, goes through one construction and one validation.  The Dynkin type
of an irreducible component is read off the counts of its own roots.
"""

import functools
import hashlib
import importlib.resources as resources
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatch, MalformedDatum, UnclassifiableComponent
from .matutil import gauss_jordan, smith_normal_form

# Lower bounds on p, keyed by Dynkin type letter.  A component of type X_n
# passes for a prime p iff p is strictly larger than the bound.
P_BOUNDS = {
    "A": lambda n: 1,
    "B": lambda n: n,
    "C": lambda n: 2,
    "D": lambda n: 2,
    "E": lambda n: {6: 3, 7: 19, 8: 31}[n],
    "F": lambda n: 3,
    "G": lambda n: 3,
}


@dataclass(frozen=True)
class RootDatum:
    rank: int
    roots: tuple          # tuple of integer coordinate tuples
    coroots: tuple        # aligned with roots
    simple_indices: tuple
    name: str = ""
    _derived: dict = field(default_factory=dict, compare=False, repr=False)

    # -- derived structure ------------------------------------------------

    @property
    def simple_roots(self):
        return tuple(self.roots[i] for i in self.simple_indices)

    @property
    def simple_coroots(self):
        return tuple(self.coroots[i] for i in self.simple_indices)

    @property
    def nsimple(self):
        return len(self.simple_indices)

    def cartan(self):
        """C[i][j] = <alpha_i, alpha_j^vee> over the simple indices."""
        return tuple(
            tuple(pairing(self, a, bv) for bv in self.simple_coroots)
            for a in self.simple_roots
        )

    def simple_coords(self, root):
        """Coordinates of a root in the simple basis (exact rationals -> ints)."""
        key = ("coords", root)
        if key not in self._derived:
            coeffs = simple_root_coeffs(self, root)
            if coeffs is None or any(c.denominator != 1 for c in coeffs):
                raise MalformedDatum(
                    f"root {root} is not an integer combination of simple roots")
            self._derived[key] = tuple(int(c) for c in coeffs)
        return self._derived[key]

    def is_positive_root(self, root):
        coords = self.simple_coords(root)
        if all(c >= 0 for c in coords):
            return True
        if all(c <= 0 for c in coords):
            return False
        raise MalformedDatum(f"root {root} has mixed-sign simple coordinates")

    @property
    def positive_roots(self):
        if "positive" not in self._derived:
            pos = tuple(
                (r, self.coroots[i]) for i, r in enumerate(self.roots)
                if self.is_positive_root(r)
            )
            self._derived["positive"] = pos
        return self._derived["positive"]

    def coroot_of(self, root):
        if "coroot_map" not in self._derived:
            self._derived["coroot_map"] = {r: cv for r, cv in zip(self.roots, self.coroots)}
        return self._derived["coroot_map"][root]

    @functools.cached_property
    def fingerprint(self):
        pairs = sorted(zip(self.roots, self.coroots))
        simples = sorted(self.simple_roots)
        blob = json.dumps([self.rank, pairs, simples], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_json(self):
        return {
            "name": self.name,
            "rank": self.rank,
            "roots": [list(r) for r in self.roots],
            "coroots": [list(c) for c in self.coroots],
            "simple": list(self.simple_indices),
        }


@dataclass(frozen=True)
class AssumptionReport:
    free_quotient: bool
    cotorsion_ok: bool
    figure1_ok: bool
    per_component: tuple  # (type label, bound used, passed)

    @property
    def all_ok(self):
        return self.free_quotient and self.cotorsion_ok and self.figure1_ok

    def render(self):
        lines = [
            f"X / ZR free:              {'ok' if self.free_quotient else 'FAIL'}",
            f"X^ / ZR^ p-torsion free:  {'ok' if self.cotorsion_ok else 'FAIL'}",
        ]
        for label, bound, passed in self.per_component:
            lines.append(
                f"component {label}: p > {bound}  {'ok' if passed else 'FAIL'}")
        return "\n".join(lines)


def simple_root_coeffs(d, vec):
    """Rationals c with sum_i c_i alpha_i = vec over the simple roots of d,
    or None if vec is not in their span."""
    n = len(d.simple_roots)
    m = [[Fraction(a[i]) for a in d.simple_roots] + [Fraction(vec[i])]
         for i in range(d.rank)]
    pivots = gauss_jordan(m, n)
    if any(row[n] != 0 for row in m[len(pivots):]):
        return None
    sol = [Fraction(0)] * n
    for row, c in zip(m, pivots):
        sol[c] = row[n]
    return sol


def pairing(d, lam, cov):
    """Canonical pairing <lam, cov> (dot product of coordinate vectors)."""
    if len(lam) != d.rank or len(cov) != d.rank:
        raise DimensionMismatch(
            f"expected vectors of length {d.rank}, got {len(lam)} and {len(cov)}")
    return sum(int(a) * int(b) for a, b in zip(lam, cov))


# -- construction ---------------------------------------------------------


def _closure_from_simples(simples, cosimples):
    """Generate the full (root, coroot) list from aligned simple pairs."""
    roots = list(simples)
    coroots = list(cosimples)
    seen = {r: i for i, r in enumerate(roots)}
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 60:
            raise MalformedDatum("reflection closure did not terminate")
        for a, av in list(zip(roots, coroots)):
            for b, bv in zip(simples, cosimples):
                n = sum(x * y for x, y in zip(a, bv))
                ref = tuple(x - n * y for x, y in zip(a, b))
                refv = tuple(x - sum(p * q for p, q in zip(b, av)) * y
                             for x, y in zip(av, bv))
                if ref not in seen:
                    seen[ref] = len(roots)
                    roots.append(ref)
                    coroots.append(refv)
                    changed = True
    # include negatives
    for a, av in list(zip(roots, coroots)):
        neg = tuple(-x for x in a)
        if neg not in seen:
            seen[neg] = len(roots)
            roots.append(neg)
            coroots.append(tuple(-x for x in av))
    return roots, coroots


def bundled_names():
    """Names of the bundled data: the stems of the data/*.json documents."""
    return sorted(f.name[:-len(".json")]
                  for f in resources.files("affkl.data").iterdir()
                  if f.name.endswith(".json"))


def build_root_datum(desc):
    """Build a datum from a bundled name or explicit tables.

    Bundled names are aliases for the JSON documents shipped under data/.
    Explicit tables are dicts {"name", "rank", "roots", "coroots", "simple"};
    alternatively {"simple_roots", "simple_coroots"} generates the closure.
    """
    if isinstance(desc, str):
        names = bundled_names()
        if desc not in names:
            raise MalformedDatum(f"unknown datum {desc!r}; known: {names}")
        doc = json.loads(
            resources.files("affkl.data").joinpath(f"{desc}.json").read_text())
        desc = dict(doc, name=desc)
    if not isinstance(desc, dict):
        raise MalformedDatum(
            f"a datum document is a JSON object, not {type(desc).__name__}")
    try:
        if "simple_roots" in desc:
            simples = [tuple(r) for r in desc["simple_roots"]]
            cosimples = [tuple(c) for c in desc["simple_coroots"]]
            roots, coroots = _closure_from_simples(simples, cosimples)
            desc = {"name": desc.get("name", ""), "rank": len(simples[0]),
                    "roots": roots, "coroots": coroots,
                    "simple": range(len(simples))}
        datum = RootDatum(
            rank=int(desc["rank"]),
            roots=tuple(tuple(int(x) for x in r) for r in desc["roots"]),
            coroots=tuple(tuple(int(x) for x in c) for c in desc["coroots"]),
            simple_indices=tuple(int(i) for i in desc["simple"]),
            name=desc.get("name", ""),
        )
    except KeyError as exc:
        raise MalformedDatum(f"datum document has no {exc.args[0]!r} entry") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise MalformedDatum(f"malformed datum document: {exc}") from None
    _validate(datum)
    return datum


def load_root_datum(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise MalformedDatum(f"cannot read datum file {path}: {exc}") from None
    return build_root_datum(doc)


def _validate(d):
    simple = d.simple_indices
    if len(set(simple)) != len(simple) or not all(
            0 <= i < len(d.roots) for i in simple):
        raise MalformedDatum(
            f"simple indices {list(simple)} repeat or lie outside the "
            f"{len(d.roots)} roots")
    if len(d.roots) != len(d.coroots):
        raise MalformedDatum("roots and coroots differ in length")
    if len(set(d.roots)) != len(d.roots):
        raise MalformedDatum("duplicate roots")
    for r in d.roots:
        if len(r) != d.rank:
            raise MalformedDatum("root of wrong rank")
        if all(x == 0 for x in r):
            raise MalformedDatum("zero vector listed as root")
    cart = d.cartan()
    n = d.nsimple
    for i in range(n):
        if cart[i][i] != 2:
            raise MalformedDatum(f"Cartan diagonal entry {cart[i][i]} != 2")
        for j in range(n):
            if i != j and cart[i][j] > 0:
                raise MalformedDatum("positive off-diagonal Cartan entry")
    root_set = set(d.roots)
    for a in d.roots:
        d.simple_coords(a)          # integer simple coordinates
        d.is_positive_root(a)       # definite sign
        for b, bv in zip(d.roots, d.coroots):
            n_ab = pairing(d, a, bv)
            ref = tuple(x - n_ab * y for x, y in zip(a, b))
            if ref not in root_set:
                raise MalformedDatum(
                    f"reflection of {a} along {b} leaves the root set")


# -- components and classification ---------------------------------------


def components(d):
    """Irreducible components: (simple index set, type label, max short root)."""
    n = d.nsimple
    cart = d.cartan()
    adj = {i: {j for j in range(n) if j != i and cart[i][j]} for i in range(n)}
    seen = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        comp = []
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            comp.append(v)
            stack.extend(adj[v] - seen)
        comp.sort()
        comps.append((tuple(comp),) + _component_type(d, comp))
    comps.sort()
    return comps


def _component_type(d, comp):
    """(type label, dominance-maximal short root) of an irreducible component.

    The label is read off the component's rank k, its number n of reduced
    positive roots (a root whose half is a root is skipped) and the number s
    of short ones among them (Bourbaki, Lie Groups and Lie Algebras, Ch. VI,
    Plates I-IX).  The counts tie only for isomorphic types, A3 = D3,
    A1 = B1 and B2 = C2, and the first label in alphabetical order wins.
    """
    comp_set = set(comp)
    roots = set(d.roots)
    sym = _symmetrizer(d, comp)
    norms = {}
    for r, _ in d.positive_roots:
        coords = d.simple_coords(r)
        support = {i for i, c in enumerate(coords) if c}
        reduced = any(x % 2 for x in r) or tuple(x // 2 for x in r) not in roots
        if reduced and support <= comp_set:
            norms[r] = sum(coords[i] * coords[j] * sym[(i, j)]
                           for i in comp for j in comp)
    short = min(norms.values())
    shorts = [r for r in norms if norms[r] == short]
    k, n, s = len(comp), len(norms), len(shorts)
    counts = {f"A{k}": (k * (k + 1) // 2,) * 2, f"B{k}": (k * k, k),
              f"C{k}": (k * k, k * k - k), f"D{k}": (k * (k - 1),) * 2,
              "E6": (36, 36), "E7": (63, 63), "E8": (120, 120),
              "F4": (24, 12), "G2": (6, 3)}
    label = next((t for t, c in counts.items()
                  if c == (n, s) and int(t[1:]) == k), None)
    if label is None:
        raise UnclassifiableComponent(
            f"rank {k} component with {n} positive roots, {s} short: "
            "no finite type has these counts")
    maxima = [r for r in shorts if all(_dominates(d, r, t) for t in shorts)]
    if len(maxima) != 1:
        raise UnclassifiableComponent(
            f"no unique dominance-maximal short root among {shorts}")
    return label, maxima[0]


def _dominates(d, r, s):
    diff = tuple(a - b for a, b in zip(d.simple_coords(r), d.simple_coords(s)))
    return all(c >= 0 for c in diff)


def _symmetrizer(d, comp):
    """(alpha_i, alpha_j) for i, j in the component, via d_i C_ij."""
    cart = d.cartan()
    dvals = {comp[0]: Fraction(1)}
    changed = True
    while changed:
        changed = False
        for i in comp:
            for j in comp:
                if i in dvals and j not in dvals and cart[i][j] != 0:
                    # (alpha_i, alpha_j) = C_ij d_j = C_ji d_i
                    dvals[j] = dvals[i] * cart[j][i] / cart[i][j]
                    changed = True
    sym = {}
    for i in comp:
        for j in comp:
            sym[(i, j)] = dvals[j] * cart[i][j]
    return sym


# -- standing assumptions -------------------------------------------------


def check_assumptions(d, p):
    """Report on the standing conditions for a prime p.

    Freeness of X/ZR and p-torsion of X^vee/ZR^vee are decided by Smith
    normal form of the simple root (resp. coroot) matrices; the component
    bounds come from the hard-coded table.
    """
    root_cols = [list(r) for r in d.simple_roots]
    mat = tuple(tuple(root_cols[j][i] for j in range(d.nsimple))
                for i in range(d.rank))
    free = all(f == 1 for f in smith_normal_form(mat))
    cov_cols = [list(c) for c in d.simple_coroots]
    cmat = tuple(tuple(cov_cols[j][i] for j in range(d.nsimple))
                 for i in range(d.rank))
    cotorsion = all(f % p != 0 for f in smith_normal_form(cmat))
    per = []
    for _, label, _ in components(d):
        bound = P_BOUNDS[label[0]](int(label[1:]))
        per.append((label, bound, p > bound))
    fig_ok = all(ok for _, _, ok in per)
    return AssumptionReport(
        free_quotient=free,
        cotorsion_ok=cotorsion,
        figure1_ok=fig_ok,
        per_component=tuple(per),
    )
