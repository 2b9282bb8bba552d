"""Integer Laurent polynomials in the grading variable v."""


class LaurentPoly:
    """Finitely supported map exponent -> integer coefficient.

    Results of arithmetic are built by `_of`, which takes over an {int:
    nonzero int} dict without a copy; no method mutates `coeffs`, so a
    polynomial may share its dict with a cached one.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    self.coeffs[int(e)] = int(c)

    @staticmethod
    def _of(coeffs):
        """Trusted constructor: coeffs maps ints to nonzero ints."""
        out = object.__new__(LaurentPoly)
        out.coeffs = coeffs
        return out

    @staticmethod
    def const(c):
        return LaurentPoly({0: c})

    @staticmethod
    def v(exp=1, coeff=1):
        return LaurentPoly({exp: coeff})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            c += out.get(e, 0)
            if c:
                out[e] = c
            else:
                del out[e]
        return LaurentPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return LaurentPoly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPoly()
            return LaurentPoly._of(
                {e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly._of({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def shift(self, k):
        """self * v^k."""
        return LaurentPoly._of({e + k: c for e, c in self.coeffs.items()})

    def bar(self):
        """v -> v^{-1}."""
        return LaurentPoly._of({-e: c for e, c in self.coeffs.items()})

    def coeff(self, exp):
        return self.coeffs.get(exp, 0)

    def eval_at_one(self):
        return sum(self.coeffs.values())

    def degree_span(self):
        if not self.coeffs:
            return (0, 0)
        return (min(self.coeffs), max(self.coeffs))

    def is_nonneg(self):
        return all(c >= 0 for c in self.coeffs.values())

    def to_json(self):
        return {str(e): c for e, c in sorted(self.coeffs.items())}

    @staticmethod
    def from_json(obj):
        """Inverse of to_json.  Only an object of canonical integer strings
        to nonzero ints (not bools) parses; anything else raises ValueError
        or TypeError, never a rounded or truncated polynomial."""
        if type(obj) is not dict:
            raise TypeError(
                f"coefficients must be an object, not {type(obj).__name__}")
        out = {}
        for key, c in obj.items():
            e = int(key)
            if str(e) != key:
                raise ValueError(f"exponent {key!r} is not a canonical int")
            if type(c) is not int or not c:
                raise ValueError(f"coefficient {c!r} at v^{key} is not a "
                                 f"nonzero int")
            out[e] = c
        return LaurentPoly._of(out)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                term = str(abs(c))
            else:
                vpart = "v" if e == 1 else f"v^{e}"
                term = vpart if abs(c) == 1 else f"{abs(c)}*{vpart}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    __repr__ = __str__


ONE = LaurentPoly.const(1)
ZERO = LaurentPoly()
V = LaurentPoly.v()
