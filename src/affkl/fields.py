"""Coefficient fields: the rationals and the prime fields GF(p).

The p-canonical basis depends only on the characteristic p, so these two
are all the coefficients affkl needs.  Field elements are plain hashable
Python values (int in [0, p) over GF(p); over Q an int, or a Fraction only
when not integral), with arithmetic routed through the field object.  This
keeps polynomial dictionaries light and lets the mod-p linear algebra hand
coefficients to numpy directly.

Kernels that sum many products (`polys.PolyRing`) accumulate coefficients
unreduced, with Python `+` and `*` on field elements, and call the field's
`reduce` once per result: it maps any such sum of products to the canonical
element it equals (`% p` over GF(p), `_canonical` over Q).
"""

from fractions import Fraction


def _canonical(q):
    """The rational q (an int or a Fraction) as an int when it is integral."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


class Rationals:
    char = 0

    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def add(self, a, b):
        return _canonical(a + b)

    def sub(self, a, b):
        return _canonical(a - b)

    def mul(self, a, b):
        return _canonical(a * b)

    def neg(self, a):
        return -a

    def reduce(self, a):
        return _canonical(a)

    def inv(self, a):
        return _canonical(Fraction(1, a))

    def is_zero(self, a):
        return a == 0

    def to_str(self, a):
        return str(a)

    def parse(self, s):
        return _canonical(Fraction(s))

    def describe(self):
        return "QQ"

    __repr__ = describe


class PrimeField:
    def __init__(self, p):
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.char

    def add(self, a, b):
        return (a + b) % self.char

    def sub(self, a, b):
        return (a - b) % self.char

    def mul(self, a, b):
        return (a * b) % self.char

    def neg(self, a):
        return (-a) % self.char

    def reduce(self, a):
        return a % self.char

    def inv(self, a):
        return pow(a, self.char - 2, self.char)

    def is_zero(self, a):
        return a % self.char == 0

    def to_str(self, a):
        return str(a)

    def parse(self, s):
        return int(s) % self.char

    def describe(self):
        return f"GF({self.char})"

    __repr__ = describe


def field_for(char):
    return PrimeField(char) if char else Rationals()
