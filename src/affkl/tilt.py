"""Multiplicity tables from basis expansions evaluated at 1.

tilt_mult(w, y) is the coefficient polynomial at y of the element w's basis
expansion, evaluated at v = 1.  Hom dimensions between two objects are sums
of products of such multiplicities, and the parahoric/Whittaker variant is a
signed sum over the right parabolic subgroup.
"""

from dataclasses import dataclass, field

from .errors import NegativeMultiplicity, NotMinimalRep, SupportIncomplete
from .hecke import signed_coset, signed_sum
from .serialize import json_text
from .soergel import p_canonical, p_kl
from .weyl import (ExtWeylElt, finitary_data_over, is_min_double_coset_rep,
                   longest_element)


def tilt_mult(w, y, table):
    """Multiplicity of the standard object y in the tilting object w."""
    return p_kl(y, w, table).eval_at_one()


def _nonzero_rows(x, table):
    """The support of x's expansion, each element with its multiplicity."""
    return {z: p.eval_at_one() for z, p in p_canonical(x, table).terms.items()}


def _check_support(contributions, support):
    if support is None:
        return
    supp = set(support)
    for z in contributions:
        if z not in supp:
            raise SupportIncomplete(
                f"nonzero multiplicity at {z} outside the given support")


def tilt_hom_dim(x, y, table, support=None):
    """dim Hom of tilting objects: sum over w of mult(x,w) * mult(y,w)."""
    mx = _nonzero_rows(x, table)
    my = _nonzero_rows(y, table)
    _check_support(mx, support)
    _check_support(my, support)
    return sum(mx[z] * my[z] for z in mx if z in my)


def parity_hom_dim(w, y, table, support=None):
    """Graded-total Hom dimension between parity objects labelled w and y."""
    return tilt_hom_dim(w, y, table, support=support)


def parabolic_tilt_mult(L, K, w, y, table, strict=True):
    """Signed multiplicity sum over W_K for the (L, K) parahoric setting.

    Both w and y must be length-additive minimal double coset representatives
    when strict is set.
    """
    datum = table.datum
    wl = longest_element(datum, L)
    wk_elements, wk = finitary_data_over(datum, K)
    if strict:
        _check_min_reps(L, K, (w, y), wl, wk)
    return _nonnegative(w, y, signed_sum(_nonzero_rows(wl * w, table),
                                         signed_coset(y, wk_elements)))


def _check_min_reps(L, K, elements, wl, wk):
    for x in elements:
        if not is_min_double_coset_rep(L, K, x, wl=wl, wk=wk):
            raise NotMinimalRep(f"{x} is not in the minimal coset set")


def _nonnegative(w, y, total):
    if total < 0:
        raise NegativeMultiplicity(
            f"signed sum for ({w}, {y}) came out {total}")
    return total


@dataclass
class MultTable:
    datum_fingerprint: str
    characteristic: int
    L: tuple
    K: tuple
    entries: dict = field(default_factory=dict)   # (w, y) -> int
    row_order: tuple = ()
    col_order: tuple = ()
    metadata: dict = field(default_factory=dict)

    def entry(self, w, y):
        return self.entries.get((w, y), 0)

    def to_json(self):
        # the entries in (w, y) order by sort_key: each element is ranked
        # once, and each entry sorts on the one int rank(w) * n + rank(y)
        rank = {x: k for k, x in enumerate(sorted(
            {x for pair in self.entries for x in pair},
            key=ExtWeylElt.sort_key))}
        n = len(rank)
        rows = [[w.canonical_str(), y.canonical_str(), m]
                for (w, y), m in sorted(
                    self.entries.items(),
                    key=lambda t: rank[t[0][0]] * n + rank[t[0][1]])]
        return {
            "datum": self.datum_fingerprint,
            "p": self.characteristic,
            "L": list(self.L),
            "K": list(self.K),
            "entries": rows,
            "metadata": dict(sorted(self.metadata.items())),
        }

    def render_json(self):
        return json_text(self.to_json(), indent=2) + "\n"

    def _cell_rows(self):
        """The rows in order, each as (w, its cell texts in column order):
        the entry's text where the row has one, "0" elsewhere."""
        cells = {}
        for (w, y), m in self.entries.items():
            cells.setdefault(w, {})[y] = str(m)
        cols = self.col_order
        for w in self.row_order:
            row = cells.get(w, {})
            yield w, [row.get(y, "0") for y in cols]

    def render_csv(self):
        cols = list(self.col_order)
        lines = ["w\\y," + ",".join(y.canonical_str() for y in cols)]
        for w, cells in self._cell_rows():
            lines.append(w.canonical_str() + "," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def render_text(self):
        cols = list(self.col_order)
        headers = ["w\\y"] + [y.canonical_str() for y in cols]
        rows = [headers]
        for w, cells in self._cell_rows():
            rows.append([w.canonical_str()] + cells)
        widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
        out = []
        for r in rows:
            out.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
        return "\n".join(out) + "\n"

    def render_tex(self):
        cols = list(self.col_order)
        lines = [r"\begin{tabular}{l|" + "r" * len(cols) + "}"]
        lines.append(" & ".join(
            ["$w \\backslash y$"] +
            [_tex_label(y) for y in cols]) + r" \\ \hline")
        for w, cells in self._cell_rows():
            lines.append(" & ".join([_tex_label(w)] + cells) + r" \\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines) + "\n"

    def render(self, fmt):
        return {
            "json": self.render_json,
            "csv": self.render_csv,
            "text": self.render_text,
            "tex": self.render_tex,
        }[fmt]()


def _tex_label(w):
    return "$" + w.canonical_str().replace(";", ";\\,") + "$"


def mult_table(L, K, max_len, table, sector="waff_only", omegas=None):
    """All parahoric multiplicities (w, y) with l(w_L w) <= max_len.

    Every entry is also checked against the left-coset sweep: the signed sum
    over z y W_K for each z in W_L must give the same multiplicity.  Row w
    is read off the support of p-b_{w_L w} alone: each element of it adds its
    signed value to the sum of the coset y W_K, and of each coset z y W_K,
    that holds it.
    """
    from .weyl import min_double_coset_reps

    datum = table.datum
    wl_elements, wl = finitary_data_over(datum, L)
    wk_elements, wk = finitary_data_over(datum, K)
    reps = [
        w for w in min_double_coset_reps(L, K, max_len, datum=datum,
                                         sector=sector, omegas=omegas)
        if (wl * w).length <= max_len
    ]
    _check_min_reps(L, K, reps, wl, wk)
    out = MultTable(
        datum_fingerprint=datum.fingerprint,
        characteristic=table.char,
        L=tuple(s.index for s in L),
        K=tuple(s.index for s in K),
        metadata={"source": table.source,
                  "realization": table.realization_hash()},
    )
    out.row_order = tuple(reps)
    out.col_order = tuple(reps)
    # z = e gives y W_K itself, so the sweep runs over the other z
    zs = [z for z in wl_elements if not z.is_identity()]
    zeros = [0] * len(zs)    # the sweep sums of a coset the row misses
    # the cosets y W_K of distinct minimal double coset representatives are
    # disjoint, so each element lies in at most one of them; z y W_K may
    # coincide for several z, so the sweep keeps every (y, z) it lies in
    coset_of = {}
    sweep_of = {}
    for y in reps:
        for u, sign in signed_coset(y, wk_elements):
            coset_of[u] = (y, sign)
        for k, z in enumerate(zs):
            for u, sign in signed_coset(z * y, wk_elements):
                sweep_of.setdefault(u, []).append((y, k, sign))
    column = {y: i for i, y in enumerate(reps)}
    for w in reps:
        sums = {}
        sweeps = {}    # y -> the signed sums over z y W_K, z in zs order
        for u, m in _nonzero_rows(wl * w, table).items():
            hit = coset_of.get(u)
            if hit is not None:
                y, sign = hit
                sums[y] = sums.get(y, 0) + sign * m
            for y, k, sign in sweep_of.get(u, ()):
                row = sweeps.get(y)
                if row is None:
                    row = sweeps[y] = list(zeros)
                row[k] += sign * m
        # a y the row misses has m = 0 and every sweep sum 0, so checking
        # the touched y in column order raises the first failure of the row
        for y in sorted(sums.keys() | sweeps.keys(), key=column.__getitem__):
            m = _nonnegative(w, y, sums.get(y, 0))
            for z, alt in zip(zs, sweeps.get(y, zeros)):
                if alt != m:
                    raise NegativeMultiplicity(
                        f"left-coset sweep broke at z={z}: {alt} != {m}")
            if m:
                out.entries[(w, y)] = m
    return out
