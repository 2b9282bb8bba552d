"""Krull-Schmidt splitting and the positive-characteristic canonical basis.

Indecomposable summands are cut out of tensor products by complete families
of primitive idempotents of the degree-0 endomorphism algebra.  Walking up
the Bruhat order and peeling known summands off B(y-rep) * B_s yields the
basis expansion for each element; the top summand (the unique one whose
labels reach the element itself) is stored as that element's representative.

Before splitting M = rep(y) * B_s, the character ch(M) = p-b_y * b_s is read:
when no coefficient below the top has a term at an exponent <= 0, M has no
lower summand (by positivity of the p-canonical basis, in every
characteristic), so M itself is the representative and End^0 is never built.

Only the least element u0 of each orbit under conjugation by Omega goes
through its word.  Every other element u = omega u0 omega^-1 of the orbit
gets p-b_{u0} relabelled z -> omega z omega^-1 and the representative
bimodule.transport(rep(u0), omega) = F_omega * rep(u0) * F_omega^-1, since
length-zero elements act by diagram automorphisms that preserve the
realization.
"""

from .bimodule import (
    LabeledBimodule,
    b_object,
    character,
    f_object,
    tensor,
    transport,
)
from .errors import IdentificationFailure, SolverError
from .fdalg import FDAlgebra
from .hecke import omega_times, unit as hecke_unit
from .homs import SlotMap, hom_space
from .laurent import LaurentPoly, ONE
from .linalg import SpanSolver, independent_rows, rref_field
from .realization import build_realization
from .weyl import (
    ExtWeylElt,
    bruhat_leq,
    omega_elements,
    omega_factorize,
    reduced_word,
    simple_reflections,
    wid,
)


# -- splitting ---------------------------------------------------------------


def end0_split(m):
    """Complete list of (idempotent matrix, indecomposable summand)."""
    ring = m.real.ring
    fld = ring.field
    basis = hom_space(m, m, 0)
    slots = SlotMap(ring, m.degrees, m.degrees, 0)
    flat = [slots.flatten(p) for p in basis]
    span = SpanSolver(flat, fld)
    ident = [[ring.one if i == j else {} for j in range(m.rank)]
             for i in range(m.rank)]
    unit = span.coords(slots.flatten(ident))
    if unit is None:
        raise SolverError("identity missing from End^0")
    table = []
    for p in basis:
        row = []
        for q in basis:
            coords = span.coords(slots.flatten(ring.mat_mul(p, q)))
            if coords is None:
                raise SolverError("End^0 is not closed under composition")
            row.append(coords)
        table.append(row)
    alg = FDAlgebra(fld, table, unit)
    idems = alg.complete_primitive_idempotents()
    if len(idems) == 1:
        # a complete family of one idempotent is the identity: M is local
        return [(ident, _whole_summand(m))]
    out = []
    for coords in idems:
        terms = [(c, p) for c, p in zip(coords, basis) if c]
        emat = [[ring.lincomb((c, p[i][j]) for c, p in terms)
                 for j in range(m.rank)] for i in range(m.rank)]
        out.append((emat, materialize_summand(m, emat)))
    out.sort(key=lambda t: (sorted(t[1].degrees), _label_key(t[1])))
    return out


def _label_key(s):
    return tuple(sorted(w.sort_key() for w, _ in s.labels))


def materialize_summand(m, emat):
    """Image of an idempotent as a labeled bimodule on a minimal basis.

    emat must be an idempotent degree-0 endomorphism of M.  The RREF of the
    image of its scalar part e-bar gives scalar vectors w_l with pivots p_l,
    and v_l = e . w_l freely generates the image (graded Nakayama).  As
    e-bar is idempotent and block diagonal by degree, v_k[p_l] is delta_kl
    unless deg v_k > deg v_l, so the coordinates of a vector t in the v_l
    come from back substitution on the pivot rows, in decreasing degree:
    y_l = t[p_l] - sum over deg v_k > deg v_l of v_k[p_l] y_k.  Then
    sum_l v_l y_l = t is checked on every row; SolverError is raised when
    the action or a label leaves the image, as for most non-idempotent emat.
    """
    ring = m.real.ring
    fld = ring.field
    n = m.rank
    ebar = _scalar_part(ring, emat, m.degrees)
    # homogeneous basis of the image: row-reduce the columns
    cols = [[ebar[i][j] for i in range(n)] for j in range(n)]
    w_vecs, pivots = rref_field(cols, fld)
    degrees = []
    for w in w_vecs:
        degs = {m.degrees[i] for i, c in enumerate(w) if not fld.is_zero(c)}
        if len(degs) != 1:
            raise SolverError("scalar image vector is not degree-homogeneous")
        degrees.append(degs.pop())
    # graded Nakayama lift: v_l = e . w_l freely generates the image
    vcols = [[ring.lincomb((c, emat[i][j]) for j, c in enumerate(w) if c)
              for i in range(n)] for w in w_vecs]
    r = len(vcols)
    rows = [[v[i] for v in vcols] for i in range(n)]
    # back substitution: l in decreasing degree, each with the pairs
    # (k, -v_k[p_l]) over the nonzero entries of higher degree
    steps = [(l, [(k, ring.neg(vcols[k][pivots[l]])) for k in range(r)
                  if degrees[k] > degrees[l] and vcols[k][pivots[l]]])
             for l in sorted(range(r), key=lambda l: -degrees[l])]

    def coords(t, failure):
        """y with sum_l v_l y_l = t, or SolverError(failure)."""
        y = [None] * r
        for l, higher in steps:
            y[l] = ring.dot([ring.one] + [c for _, c in higher],
                            [t[pivots[l]]] + [y[k] for k, _ in higher])
        if any(ring.dot(row, y) != ti for row, ti in zip(rows, t)):
            raise SolverError(failure)
        return y

    # the action images x_g . v_l, in the v_l
    acts = []
    for g in range(m.real.dim):
        ys = [coords(ring.mat_vec(m.act[g], v),
                     "right action does not restrict to the image")
              for v in vcols]
        acts.append([[ys[l][k] for l in range(r)] for k in range(r)])
    # the label images e . x, in the v_l
    labels = []
    for w, xs in m.labels:
        vecs = []
        for x in xs:
            ex = ring.mat_vec(emat, x)
            if any(ex):
                _check_homogeneous(m, x)
                vecs.append(tuple(coords(
                    ex, "idempotent image of a label left the image")))
        vecs = independent_rows(vecs, ring)
        if vecs:
            labels.append((w, tuple(vecs)))
    return LabeledBimodule(
        m.real, tuple(degrees), tuple(acts), tuple(labels),
        wordlen=m.wordlen, char_hint=None)


def _scalar_part(ring, mat, degrees):
    """Scalar reduction of a degree-0 endomorphism on a basis of the given
    degrees: the constant terms, block diagonal across the degrees."""
    fld = ring.field
    return [[ring.constant_part(mat[i][j]) if di == dj else fld.zero
             for j, dj in enumerate(degrees)] for i, di in enumerate(degrees)]


def _whole_summand(m):
    """M as its own indecomposable summand: what materialize_summand returns
    for the identity idempotent, without the back substitution."""
    labels = []
    for w, xs in m.labels:
        vecs = independent_rows([x for x in xs if any(x)], m.real.ring)
        if vecs:
            labels.append((w, tuple(vecs)))
    return LabeledBimodule(m.real, m.degrees, m.act, tuple(labels),
                           wordlen=m.wordlen, char_hint=None)


def _check_homogeneous(m, x):
    """Raise SolverError unless the label vector x is homogeneous."""
    degs = set()
    ring = m.real.ring
    for i, entry in enumerate(x):
        if entry:
            degs.add(ring.degree(entry) + m.degrees[i])
    if len(degs) != 1:
        raise SolverError("label vector is not homogeneous")


# -- summand identification ---------------------------------------------------


def is_shifted_iso(s, t, shift):
    """Is s isomorphic to t(shift)?  Both must be indecomposable.

    Complete for indecomposables: some pair of basis morphisms composes to an
    invertible endomorphism iff the objects are isomorphic (the radical of a
    local ring absorbs sums).
    """
    if sorted(d - shift for d in t.degrees) != sorted(s.degrees):
        return False
    fwd = hom_space(s, t, shift)
    bwd = hom_space(t, s, -shift)
    fld = s.real.ring.field
    ring = s.real.ring
    for f in fwd:
        for g in bwd:
            scal = _scalar_part(ring, ring.mat_mul(g, f), s.degrees)
            _, pivots = rref_field(scal, fld)
            if len(pivots) == s.rank:
                return True
    return False


# -- the table ----------------------------------------------------------------


class PCanTable:
    """Expansion cache for one (datum, characteristic) pair.

    source "soergel" runs the bimodule pipeline; source "kl" (characteristic
    0 only) fills entries from the canonical-basis recursion instead.
    """

    def __init__(self, datum, char, source="soergel"):
        if source not in ("soergel", "kl"):
            raise ValueError(source)
        if source == "kl" and char != 0:
            raise ValueError("source='kl' is only valid in characteristic 0")
        self.datum = datum
        self.char = char
        self.source = source
        self.real = build_realization(datum, char) if source == "soergel" else None
        self.entries = {}
        self.reps = {}
        self.stats = {"computed": 0, "cache_hits": 0, "splits_skipped": 0,
                      "transported": 0}
        self._conjugators = None    # [(omega, omega^-1)], see orbit_least

    def realization_hash(self):
        return self.real.realization_hash() if self.real else "kl"

    def ensure(self, u):
        """Compute and store the expansion of an element of W_aff."""
        if u in self.entries:
            self.stats["cache_hits"] += 1
            return self.entries[u]
        if self.source == "kl" or u.length == 0:
            return self._compute(u)
        u0, omega = self.orbit_least(u)
        if u0 == u:
            return self._compute(u)
        # u0 is the least element of its own orbit: computed through its
        # word with no second walk, while omega comes from u's walk
        if u0 in self.entries:
            self.stats["cache_hits"] += 1
        else:
            self._compute(u0)
        self.stats["computed"] += 1
        top = transport(self.reps[u0], omega)
        expansion = top.char_hint
        _check_expansion(u, expansion)
        self.stats["transported"] += 1
        self.entries[u] = expansion
        self.reps[u] = top
        return expansion

    def _compute(self, u):
        """Compute and store the expansion of u without an orbit walk: on
        the bimodule route u is e or the least element of its orbit."""
        self.stats["computed"] += 1
        if self.source == "kl":
            from .hecke import canonical_basis

            out = canonical_basis(u)
            self.entries[u] = out
            return out
        if u.length == 0:
            if not u.is_identity():
                raise ValueError("ensure() expects elements of W_aff")
            out = hecke_unit(self.datum)
            self.entries[u] = out
            self.reps[u] = f_object(self.real, u)
            return out
        expansion, top = self.expansion_via_word(u, reduced_word(u))
        top.char_hint = expansion
        self.entries[u] = expansion
        self.reps[u] = top
        return expansion

    def orbit_least(self, u):
        """(u0, omega) with u = omega u0 omega^-1 and u0 the least element
        (by ExtWeylElt.sort_key) of u's orbit under conjugation by Omega.

        The orbit is closed under conjugation by omega_elements(datum, 1);
        omega is the first conjugator found on a walk that depends on u
        alone, so u0 and omega do not depend on the order of ensure calls.
        """
        if self._conjugators is None:
            # one conjugator per nontrivial permutation of S_aff: elements
            # that permute S_aff alike (central ones fix it) act alike on W_aff
            gens = [s.as_element
                    for s in simple_reflections(self.datum, conj_search=False)]
            seen = {tuple(gens)}
            self._conjugators = []
            for om in omega_elements(self.datum, 1):
                inv = om.inverse()
                action = tuple(om * s * inv for s in gens)
                if action not in seen:
                    seen.add(action)
                    self._conjugators.append((om, inv))
        conj = {u: wid(self.datum)}     # x -> c with x = c u c^-1
        frontier = [u]
        while frontier:
            nxt = []
            for x in frontier:
                for om, inv in self._conjugators:
                    y = om * x * inv
                    if y not in conj:
                        conj[y] = om * conj[x]
                        nxt.append(y)
            frontier = nxt
        u0 = min(conj, key=ExtWeylElt.sort_key)
        return u0, conj[u0].inverse()

    def expansion_via_word(self, u, word):
        """Decompose rep(word prefix) * B_{last letter}; no caching of u.

        Returns (expansion, top summand).  Lower terms are ensured through
        the canonical recursion.
        """
        refls = simple_reflections(self.datum, conj_search=False)
        s = refls[word[-1]]
        y = u * s.as_element
        if y.length != u.length - 1:
            raise ValueError("word does not end with a descent")
        self.ensure(y)

        def failure(cls, stage, msg):
            """cls(msg), naming u, its word and the stage that failed."""
            words = " ".join(f"s{i}" for i in word)
            return cls(f"{u.canonical_str()} (word {words}): {stage} of "
                       f"rep(y)·B_s with y = {y.canonical_str()}, "
                       f"s = s{s.index} failed: {msg}")

        big = tensor(self.reps[y], b_object(self.real, s))
        ch = character(big)
        if _character_proves_indecomposable(ch, u):
            self.stats["splits_skipped"] += 1
            summands = [_whole_summand(big)]
        else:
            try:
                summands = [piece for _, piece in end0_split(big)]
            except SolverError as exc:
                raise failure(SolverError, "End^0 split", exc) from exc
        tops = []
        lower = []
        for piece in summands:
            if u in piece.label_map():
                tops.append(piece)
            else:
                lower.append(piece)
        if len(tops) != 1:
            raise failure(IdentificationFailure, "summand identification",
                          f"expected one top summand, found {len(tops)}")
        expansion = ch
        for piece in lower:
            try:
                z = _top_label(piece)
            except IdentificationFailure as exc:
                raise failure(IdentificationFailure, "summand identification",
                              exc) from exc
            self.ensure(z)
            rep_z = self.reps[z]
            shift = min(rep_z.degrees) - min(piece.degrees)
            if not is_shifted_iso(piece, rep_z, shift):
                raise failure(
                    IdentificationFailure, "summand identification",
                    f"summand with top label {z.canonical_str()} does not "
                    f"match the stored representative at shift {shift}")
            expansion = expansion - self.entries[z].scale(LaurentPoly.v(-shift))
        _check_expansion(u, expansion)
        return expansion, tops[0]


def _check_expansion(u, expansion):
    """Raise IdentificationFailure unless the expansion of u has top
    coefficient 1 and support in the Bruhat interval below u."""
    if expansion.coeff(u) != ONE:
        raise IdentificationFailure(
            f"expansion of {u} has top coefficient {expansion.coeff(u)}")
    for z in expansion.support():
        if not bruhat_leq(z, u):
            raise IdentificationFailure(
                f"expansion of {u} is supported at {z} above it")


def _character_proves_indecomposable(ch, u):
    """True when ch = ch(M) leaves no room for a summand of M other than B_u.

    A lower summand B_z(k)^{m_z} adds the self-dual m_z(v) != 0 to the
    coefficient at z, so that coefficient gets a term at an exponent <= 0;
    every other contribution at z is non-negative (positivity of the
    p-canonical basis, Jensen-Williamson), so nothing cancels it.
    """
    return all(e > 0 for z in ch.support() if z != u
               for e in ch.coeff(z).coeffs)


def _top_label(piece):
    labels = [w for w, _ in piece.labels]
    maxima = [w for w in labels if all(bruhat_leq(z, w) for z in labels)]
    if len(maxima) != 1:
        raise IdentificationFailure(
            f"summand labels {labels} have no unique maximum")
    return maxima[0]


def p_canonical(w, table):
    """Basis element for any group element; the length-zero part acts by
    left multiplication on the affine part's expansion."""
    om, u = omega_factorize(w)
    base = table.ensure(u)
    if om.is_identity():
        return base
    return omega_times(om, base)


def p_kl(y, w, table):
    """Coefficient polynomial of the standard basis element at y."""
    if not bruhat_leq(y, w):
        return LaurentPoly()
    return p_canonical(w, table).coeff(y)
