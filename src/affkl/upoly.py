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
