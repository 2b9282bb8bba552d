"""Univariate polynomial helpers over a field object (low-to-high coeff lists)."""


def trim(field, f):
    while f and field.is_zero(f[-1]):
        f.pop()
    return f


def add(field, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else field.zero
        b = g[i] if i < len(g) else field.zero
        out.append(field.add(a, b))
    return trim(field, out)


def sub(field, f, g):
    return add(field, f, [field.neg(x) for x in g])


def mul(field, f, g):
    if not f or not g:
        return []
    out = [field.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if field.is_zero(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return trim(field, out)


def smul(field, c, f):
    return trim(field, [field.mul(c, x) for x in f])


def divmod_poly(field, f, g):
    f = list(f)
    q = [field.zero] * max(0, len(f) - len(g) + 1)
    inv = field.inv(g[-1])
    while len(f) >= len(g):
        c = field.mul(f[-1], inv)
        d = len(f) - len(g)
        q[d] = c
        for i, x in enumerate(g):
            f[d + i] = field.sub(f[d + i], field.mul(c, x))
        trim(field, f)
        if not f:
            break
    return trim(field, q), f


def gcd(field, f, g):
    f, g = list(f), list(g)
    while g:
        _, r = divmod_poly(field, f, g)
        f, g = g, r
    if f:
        inv = field.inv(f[-1])
        f = smul(field, inv, f)
    return f


def xgcd(field, f, g):
    """(d, a, b) with a f + b g = d, d monic."""
    r0, r1 = list(f), list(g)
    s0, s1 = [field.one], []
    t0, t1 = [], [field.one]
    while r1:
        q, r = divmod_poly(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(field, s0, mul(field, q, s1))
        t0, t1 = t1, sub(field, t0, mul(field, q, t1))
    if r0:
        inv = field.inv(r0[-1])
        r0 = smul(field, inv, r0)
        s0 = smul(field, inv, s0)
        t0 = smul(field, inv, t0)
    return r0, s0, t0


def derivative(field, f):
    out = []
    for i in range(1, len(f)):
        out.append(field.mul(field.from_int(i), f[i]))
    return trim(field, out)


def pth_root(field, f):
    """p-th root of f = g(x^p) over GF(p): g itself, the coefficients of f at
    multiples of p, since g(x)^p = g(x^p) when every coefficient has c^p = c."""
    return trim(field, f[::field.char])


def squarefree_decomposition(field, f):
    """Pairwise-coprime list [(g, multiplicity)], g squarefree, f = prod g^m.

    Yun's algorithm with the char-p correction for vanishing derivative,
    which a nonconstant polynomial in characteristic 0 never has.
    """
    if len(f) <= 1:
        return []
    inv = field.inv(f[-1])
    f = smul(field, inv, f)
    out = []
    p = field.char

    def recurse(poly, mult_scale):
        if len(poly) <= 1:
            return
        d = derivative(field, poly)
        if not d:
            # poly = h(x^p)
            recurse(pth_root(field, poly), mult_scale * p)
            return
        a = gcd(field, poly, d)
        w, _ = divmod_poly(field, poly, a)
        i = 1
        while len(w) > 1:
            y = gcd(field, w, a)
            z, _ = divmod_poly(field, w, y)
            if len(z) > 1:
                out.append((z, i * mult_scale))
            a, _ = divmod_poly(field, a, y)
            w = y
            i += 1
        if len(a) > 1:
            recurse(a, mult_scale)

    recurse(f, 1)
    return out


def frobenius_factor_split(field, g):
    """For squarefree g over GF(p), find a proper monic factor or None.

    Berlekamp: a nonconstant element of the Frobenius-fixed subalgebra of
    k[x]/g yields a split via gcds with shifts.
    """
    n = len(g) - 1
    if n <= 1:
        return None
    # matrix of x -> x^p mod g on the basis 1, x, ..., x^{n-1}
    xp = _xpow_mod(field, field.char, g)
    cols = []
    cur = [field.one]
    for i in range(n):
        cols.append(cur + [field.zero] * (n - len(cur)))
        cur = _mul_mod(field, cur, xp, g)
    from .linalg import kernel_field
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            v = cols[c][r]
            if r == c:
                v = field.sub(v, field.one)
            row.append(v)
        rows.append(row)
    kern = kernel_field(rows, n, field)
    for vec in kern:
        h = trim(field, list(vec))
        if len(h) <= 1:
            continue
        for a in range(field.char):
            shifted = sub(field, h, [a])
            d = gcd(field, g, shifted)
            if 1 < len(d) < len(g):
                return d
    return None


def _xpow_mod(field, e, g):
    _, base = divmod_poly(field, [field.zero, field.one], g)
    result = [field.one]
    while e:
        if e & 1:
            result = _mul_mod(field, result, base, g)
        base = _mul_mod(field, base, base, g)
        e >>= 1
    return result


def _mul_mod(field, f, g, mod):
    _, r = divmod_poly(field, mul(field, f, g), mod)
    return r
