"""Multivariate polynomials over a coefficient field.

A polynomial is a dict {exponent tuple: nonzero field element}.  Variables
sit in grading degree 2, so a monomial of exponent sum e has degree 2e.
The ring carries the field and the variable count; all arithmetic goes
through PolyRing methods so the same code runs over Q and GF(p).
"""

from .errors import SolverError


class PolyRing:
    def __init__(self, field, nvars):
        self.field = field
        self.nvars = nvars
        self.zero = {}
        self.one = {(0,) * nvars: field.one}

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

    def mul(self, f, g):
        fld = self.field
        out = {}
        for m1, c1 in f.items():
            for m2, c2 in g.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = fld.add(out.get(m, fld.zero), fld.mul(c1, c2))
                if fld.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        return out

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
        """Substitute x_i -> sum_j mat[j][i] x_j (mat over the field)."""
        fld = self.field
        images = [self.linear([mat[j][i] for j in range(self.nvars)])
                  for i in range(self.nvars)]
        out = {}
        pow_cache = [{0: self.one} for _ in range(self.nvars)]
        for m, c in f.items():
            term = self.const(1)
            for i, e in enumerate(m):
                if e:
                    if e not in pow_cache[i]:
                        prev = max(k for k in pow_cache[i] if k < e)
                        cur = pow_cache[i][prev]
                        for _ in range(e - prev):
                            cur = self.mul(cur, images[i])
                        pow_cache[i][e] = cur
                    term = self.mul(term, pow_cache[i][e])
            out = self.add(out, self.smul(c, term))
        return out

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
        n, k = len(a), len(b)
        m = len(b[0]) if k else 0
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = {}
                for t in range(k):
                    if a[i][t] and b[t][j]:
                        acc = self.add(acc, self.mul(a[i][t], b[t][j]))
                row.append(acc)
            out.append(row)
        return out

    def mat_vec(self, a, v):
        out = []
        for row in a:
            acc = {}
            for x, y in zip(row, v):
                if x and y:
                    acc = self.add(acc, self.mul(x, y))
            out.append(acc)
        return out

    def mat_eval_poly(self, g, mats, size):
        """Evaluate g(x_0, ..., x_{n-1}) at commuting square matrices."""
        ident = [[self.one if i == j else {} for j in range(size)]
                 for i in range(size)]
        zero = [[{} for _ in range(size)] for _ in range(size)]
        powers = [dict() for _ in range(self.nvars)]
        out = zero
        for m, c in g.items():
            term = None
            for i, e in enumerate(m):
                if not e:
                    continue
                if e not in powers[i]:
                    best = max((k for k in powers[i] if k < e), default=0)
                    cur = powers[i][best] if best else ident
                    for _ in range(e - best):
                        cur = self.mat_mul(cur, mats[i])
                    powers[i][e] = cur
                fact = powers[i][e]
                term = fact if term is None else self.mat_mul(term, fact)
            if term is None:
                term = ident
            scaled = [[self.smul(c, x) for x in row] for row in term]
            out = [[self.add(x, y) for x, y in zip(ro, rs)]
                   for ro, rs in zip(out, scaled)]
        return out

    # -- rendering -----------------------------------------------------------

    def to_str(self, f):
        if not f:
            return "0"
        parts = []
        for m in sorted(f, reverse=True):
            c = f[m]
            vars_part = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(m) if e
            )
            cs = self.field.to_str(c)
            parts.append(f"{cs}*{vars_part}" if vars_part else cs)
        return " + ".join(parts)

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
