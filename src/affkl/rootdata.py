"""Root data: explicit root/coroot tables, components, and assumption checks.

A datum is stored with full root and coroot tables (index-aligned) so that
non-semisimple lattices such as GL_n are first-class.  Positive roots are the
ones whose coordinates in the simple basis are all nonnegative.
"""

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatch, MalformedDatum, UnclassifiableComponent
from .matutil import smith_normal_form

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

    @property
    def fingerprint(self):
        if "fp" not in self._derived:
            pairs = sorted(zip(self.roots, self.coroots))
            simples = sorted(self.simple_roots)
            blob = json.dumps([self.rank, pairs, simples], separators=(",", ":"))
            self._derived["fp"] = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return self._derived["fp"]

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
    return _solve_exact(m, n)


def _solve_exact(m, nvars):
    """Solve the augmented rational system; None if inconsistent."""
    rows = len(m)
    piv_of_col = {}
    r = 0
    for c in range(nvars):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        piv_of_col[c] = r
        r += 1
    for i in range(r, rows):
        if m[i][nvars] != 0:
            return None
    sol = [Fraction(0)] * nvars
    for c, pr in piv_of_col.items():
        sol[c] = m[pr][nvars]
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


def _builtin_tables():
    """Simple root/coroot pairs for the bundled data, in a fixed basis."""
    data = {}
    # sc data: X^vee has the simple coroots as standard basis, so the simple
    # roots are the rows of the Cartan matrix.
    def sc(name, cartan_rows):
        n = len(cartan_rows)
        simples = [tuple(row) for row in cartan_rows]
        cosimples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        data[name] = (simples, cosimples)

    sc("A1-sc", [[2]])
    sc("A2-sc", [[2, -1], [-1, 2]])
    sc("A3-sc", [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    sc("B2-sc", [[2, -2], [-1, 2]])
    sc("C3-sc", [[2, -1, 0], [-1, 2, -1], [0, -2, 2]])
    sc("G2-sc", [[2, -1], [-3, 2]])
    # adjoint A1: X = root lattice
    data["A1-adj"] = ([(1,)], [(2,)])
    # GL_n: roots e_i - e_j with identical coroots
    for n in (2, 3):
        simples = []
        for i in range(n - 1):
            v = [0] * n
            v[i], v[i + 1] = 1, -1
            simples.append(tuple(v))
        data[f"GL{n}"] = (simples, list(simples))
    # product datum for component tests
    data["A1xA1-sc"] = ([(2, 0), (0, 2)], [(1, 0), (0, 1)])
    return data


_BUILTINS = _builtin_tables()


def build_root_datum(desc):
    """Build a datum from a bundled name or explicit tables.

    Bundled names are aliases for the JSON documents shipped under data/.
    Explicit tables are dicts {"name", "rank", "roots", "coroots", "simple"};
    alternatively {"simple_roots", "simple_coroots"} generates the closure.
    """
    if isinstance(desc, str):
        if desc not in _BUILTINS:
            raise MalformedDatum(
                f"unknown datum {desc!r}; known: {sorted(_BUILTINS)}")
        import importlib.resources as resources

        doc = json.loads(
            resources.files("affkl.data").joinpath(f"{desc}.json").read_text())
        datum = RootDatum(
            rank=int(doc["rank"]),
            roots=tuple(tuple(int(x) for x in r) for r in doc["roots"]),
            coroots=tuple(tuple(int(x) for x in c) for c in doc["coroots"]),
            simple_indices=tuple(int(i) for i in doc["simple"]),
            name=desc,
        )
    elif isinstance(desc, dict) and "simple_roots" in desc:
        simples = [tuple(r) for r in desc["simple_roots"]]
        cosimples = [tuple(c) for c in desc["simple_coroots"]]
        roots, coroots = _closure_from_simples(simples, cosimples)
        datum = RootDatum(
            rank=len(simples[0]),
            roots=tuple(roots),
            coroots=tuple(coroots),
            simple_indices=tuple(range(len(simples))),
            name=desc.get("name", ""),
        )
    else:
        datum = RootDatum(
            rank=int(desc["rank"]),
            roots=tuple(tuple(int(x) for x in r) for r in desc["roots"]),
            coroots=tuple(tuple(int(x) for x in c) for c in desc["coroots"]),
            simple_indices=tuple(int(i) for i in desc["simple"]),
            name=desc.get("name", ""),
        )
    _validate(datum)
    return datum


def load_root_datum(path):
    with open(path) as fh:
        return build_root_datum(json.load(fh))


def _validate(d):
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
    adj = {i: set() for i in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j and cart[i][j] != 0:
                adj[i].add(j)
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
        label = _classify(cart, comp)
        beta = _max_short_root(d, comp)
        comps.append((tuple(comp), label, beta))
    comps.sort()
    return comps


def _classify(cart, comp):
    k = len(comp)
    # edge multiplicities m_ij = a_ij * a_ji
    edges = {}
    for a in range(k):
        for b in range(a + 1, k):
            i, j = comp[a], comp[b]
            m = cart[i][j] * cart[j][i]
            if m:
                edges[(a, b)] = m
    if len(edges) != k - 1:
        raise UnclassifiableComponent("component graph is not a tree")
    deg = [0] * k
    for (a, b) in edges:
        deg[a] += 1
        deg[b] += 1
    mults = sorted(edges.values())
    if any(m not in (1, 2, 3) for m in mults):
        raise UnclassifiableComponent("edge multiplicity outside {1,2,3}")
    branch = [a for a in range(k) if deg[a] >= 3]
    if len(branch) > 1 or any(deg[a] > 3 for a in range(k)):
        raise UnclassifiableComponent("not of finite type (branching)")
    if 3 in mults:
        if k != 2 or mults != [3]:
            raise UnclassifiableComponent("triple edge outside G2")
        return "G2"
    n_double = mults.count(2)
    if n_double > 1:
        raise UnclassifiableComponent("two double edges")
    if n_double == 1:
        if branch:
            raise UnclassifiableComponent("double edge with branching")
        (a, b) = next(e for e, m in edges.items() if m == 2)
        # the double edge must be terminal for B/C, interior only for F4
        ends = {v for v in (a, b) if deg[v] == 1}
        if not ends:
            if k == 4:
                return "F4"
            raise UnclassifiableComponent("interior double edge, not F4")
        if k == 2:
            return "B2"
        end = ends.pop()
        other = b if end == a else a
        # end node short => B_n, end node long => C_n
        i, j = comp[end], comp[other]
        # <alpha_end, alpha_other^vee> = -2 iff alpha_end is long
        return ("C" if cart[i][j] == -2 else "B") + str(k)
    if not branch:
        return f"A{k}"
    # simply-laced with one branch node: D or E by arm lengths
    arms = sorted(_arm_lengths(edges, k, branch[0]))
    if arms[:2] == [1, 1]:
        return f"D{k}"
    if arms == [1, 2, 2] and k == 6:
        return "E6"
    if arms == [1, 2, 3] and k == 7:
        return "E7"
    if arms == [1, 2, 4] and k == 8:
        return "E8"
    raise UnclassifiableComponent(f"unrecognized branched diagram (arms {arms})")


def _arm_lengths(edges, k, center):
    nbrs = {a: set() for a in range(k)}
    for (a, b) in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    lengths = []
    for first in nbrs[center]:
        ln = 1
        prev, cur = center, first
        while True:
            nxt = nbrs[cur] - {prev}
            if not nxt:
                break
            prev, cur = cur, nxt.pop()
            ln += 1
        lengths.append(ln)
    return lengths


def _max_short_root(d, comp):
    comp_set = set(comp)
    cands = []
    norms = {}
    sym = _symmetrizer(d, comp)
    for r, _ in d.positive_roots:
        coords = d.simple_coords(r)
        support = {i for i, c in enumerate(coords) if c}
        if support and support <= comp_set:
            norm = sum(
                coords[i] * coords[j] * sym[(i, j)]
                for i in comp for j in comp
            )
            cands.append(r)
            norms[r] = norm
    if not cands:
        raise UnclassifiableComponent("component has no roots")
    short = min(norms.values())
    shorts = [r for r in cands if norms[r] == short]
    maxima = [r for r in shorts if all(_dominates(d, r, s) for s in shorts)]
    if len(maxima) != 1:
        raise UnclassifiableComponent(
            f"no unique dominance-maximal short root among {shorts}")
    return maxima[0]


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
