"""Multivariate polynomials over a coefficient field.

A polynomial is a dict {exponent tuple: nonzero field element}.  Variables
sit in grading degree 2, so a monomial of exponent sum e has degree 2e.
The ring carries the field and the variable count; all arithmetic goes
through PolyRing methods so the same code runs over Q and GF(p).

Sums of products (`mul`, `mul_sub`, `dot`, `lincomb` and the matrix and
substitution kernels built on them) accumulate raw coefficients with Python
`+` and `*` into one dict and reduce that accumulator once, through
`field.reduce_terms`, which drops the zeros.

A polynomial is an immutable value: no code mutates a polynomial dict in
place once it has been returned (the only in-place writes are to dicts a
function builds for itself before returning them).  So any kernel may
return an input, or an image kept on the ring, itself rather than a copy,
and any number of matrix entries, label vectors and saved or loaded
bimodules may share one dict.  The kernels use this to skip work that
cannot change the result: `lincomb` drops zero polynomials and returns a
lone term of coefficient one as that polynomial; `mul` by one returns the
other factor; `apply_linear` returns the kept image of a monomial of
coefficient one; `dot` returns `{}` when no pair contributes.
"""

from operator import add

from .errors import SolverError


class PolyRing:
    def __init__(self, field, nvars):
        self.field = field
        self.nvars = nvars
        self.zero = {}
        self.one = {(0,) * nvars: field.one}
        self._images = {}       # substitution matrix -> {monomial: image}
        self._term_str = {}     # (monomial, coefficient) -> "c*x0^2*x1"

    # -- construction -----------------------------------------------------

    def const(self, c):
        e = self.field.from_int(c) if isinstance(c, int) else c
        return {} if self.field.is_zero(e) else {(0,) * self.nvars: e}

    def gen(self, i, coeff=None):
        c = coeff if coeff is not None else self.field.one
        if self.field.is_zero(c):
            return {}
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return {exp: c}

    def linear(self, vec):
        """Degree-2 element from a coordinate vector over the field."""
        out = {}
        for i, c in enumerate(vec):
            if not self.field.is_zero(c):
                out[tuple(1 if j == i else 0 for j in range(self.nvars))] = c
        return out

    # -- arithmetic --------------------------------------------------------

    def add(self, f, g):
        out = dict(f)
        fld = self.field
        for m, c in g.items():
            s = fld.add(out.get(m, fld.zero), c)
            if fld.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return out

    def sub(self, f, g):
        return self.add(f, self.neg(g))

    def neg(self, f):
        return {m: self.field.neg(c) for m, c in f.items()}

    def smul(self, c, f):
        if self.field.is_zero(c):
            return {}
        return {m: self.field.mul(c, x) for m, x in f.items()}

    @staticmethod
    def _gather(acc, f, g, scale=1):
        """acc += scale * f * g, unreduced."""
        for m1, c1 in f.items():
            c1 *= scale
            for m2, c2 in g.items():
                m = tuple(map(add, m1, m2))
                acc[m] = acc.get(m, 0) + c1 * c2
        return acc

    def mul(self, f, g):
        if g == self.one:
            return f
        if f == self.one:
            return g
        return self.field.reduce_terms(self._gather({}, f, g))

    def mul_sub(self, a, b, c, d):
        """a * b - c * d."""
        return self.field.reduce_terms(
            self._gather(self._gather({}, a, b), c, d, -1))

    def dot(self, fs, gs):
        """sum of f * g over the pairs of fs and gs."""
        acc = {}
        get = acc.get
        for f, g in zip(fs, gs):
            if f and g:
                for m1, c1 in f.items():
                    for m2, c2 in g.items():
                        m = tuple(map(add, m1, m2))
                        acc[m] = get(m, 0) + c1 * c2
        return self.field.reduce_terms(acc) if acc else {}

    def lincomb(self, terms):
        """sum of c * f over the (field element c, polynomial f) pairs."""
        terms = [(c, f) for c, f in terms if f]
        if len(terms) == 1 and terms[0][0] == self.field.one:
            return terms[0][1]
        acc = {}
        get = acc.get
        for c, f in terms:
            for m, x in f.items():
                acc[m] = get(m, 0) + c * x
        return self.field.reduce_terms(acc)

    def is_zero(self, f):
        return not f

    def degree(self, f):
        """Grading degree (2 * exponent sum); None for 0, requires homogeneity."""
        if not f:
            return None
        degs = {2 * sum(m) for m in f}
        if len(degs) != 1:
            raise SolverError(f"inhomogeneous polynomial of degrees {sorted(degs)}")
        return degs.pop()

    def constant_part(self, f):
        return f.get((0,) * self.nvars, self.field.zero)

    # -- substitution and division ------------------------------------------

    def apply_linear(self, f, mat):
        """Substitute x_i -> sum_j mat[j][i] x_j (mat over the field, a tuple
        of tuples: the image of each monomial stays on the ring for reuse)."""
        if not f:
            return {}
        images = self._images.get(mat)
        if images is None:
            images = self._images[mat] = {(0,) * self.nvars: self.one}
        # a lone monomial of coefficient one comes back as its kept image
        return self.lincomb([(c, images.get(m) or self._image(m, images, mat))
                             for m, c in f.items()])

    def _image(self, m, images, mat):
        """The image of the monomial m, kept in images: that of m / x_i
        times that of x_i, for the first variable x_i of m."""
        i = next(i for i, e in enumerate(m) if e)
        lower = m[:i] + (m[i] - 1,) + m[i + 1:]
        low = images.get(lower) or self._image(lower, images, mat)
        images[m] = self.mul(low, self.linear([row[i] for row in mat]))
        return images[m]

    def exact_div(self, f, g):
        """Quotient f / g, asserting exact division (lex long division)."""
        if not g:
            raise ZeroDivisionError("division by the zero polynomial")
        fld = self.field
        rem = dict(f)
        quot = {}
        glead = max(g)
        ginv = fld.inv(g[glead])
        guard = 0
        while rem:
            guard += 1
            if guard > 100000:
                raise SolverError("division loop did not terminate")
            flead = max(rem)
            diff = tuple(a - b for a, b in zip(flead, glead))
            if any(d < 0 for d in diff):
                raise SolverError("inexact polynomial division")
            c = fld.mul(rem[flead], ginv)
            quot[diff] = c
            for m, x in g.items():
                mm = tuple(a + b for a, b in zip(m, diff))
                s = fld.sub(rem.get(mm, fld.zero), fld.mul(c, x))
                if fld.is_zero(s):
                    rem.pop(mm, None)
                else:
                    rem[mm] = s
        return quot

    # -- matrices of polynomials ---------------------------------------------

    def mat_mul(self, a, b):
        cols = list(zip(*b))
        return [[self.dot(row, col) for col in cols] for row in a]

    def mat_vec(self, a, v):
        return [self.dot(row, v) for row in a]

    # -- rendering -----------------------------------------------------------

    def to_str(self, f):
        if not f:
            return "0"
        known = self._term_str
        if len(f) == 1:
            (t,) = f.items()
            return known.get(t) or self._term_text(t)
        return " + ".join([known.get(t) or self._term_text(t)
                           for t in sorted(f.items(), reverse=True)])

    def _term_text(self, term):
        """The text of a (monomial, coefficient) pair, kept on the ring."""
        m, c = term
        vars_part = "*".join(f"x{i}" if e == 1 else f"x{i}^{e}"
                             for i, e in enumerate(m) if e)
        cs = self.field.to_str(c)
        text = self._term_str[term] = f"{cs}*{vars_part}" if vars_part else cs
        return text

    def parse(self, s):
        s = s.strip()
        if s == "0":
            return {}
        out = {}
        for term in s.split(" + "):
            bits = term.split("*")
            exps = [0] * self.nvars
            coeff = None
            for b in bits:
                if b.startswith("x"):
                    if "^" in b:
                        var, e = b[1:].split("^")
                        exps[int(var)] = int(e)
                    else:
                        exps[int(b[1:])] = 1
                else:
                    coeff = self.field.parse(b)
            if coeff is None:
                coeff = self.field.one
            m = tuple(exps)
            if not self.field.is_zero(coeff):
                out[m] = coeff
        return out
