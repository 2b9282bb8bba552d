"""Workload definitions.

A pcan workload ensures, in length order, every element of W_aff up to
`max_len - 1` and the first `top_count` elements of length `max_len` in
(length, canonical string) order, then saves the table.  The seed permutes
the order of the ensure calls within each length; every order must give the
same expansions.

The tables workload loads a GL2 p=2 table (built by a separate set-up
process) and builds multiplicity tables from it and from `kl`-route tables;
the seed permutes the order of the table jobs.
"""

import random

PCAN = {
    # GL3 at p=2: all 19 elements up to length 3 and one of the 12 of length 4.
    "gl3-p2-len4": {"datum": "GL3", "p": 2, "max_len": 4, "top_count": 1},
    # A2-sc at p=0 through the bimodule route: all 19 elements up to length 3.
    "a2-p0-len3": {"datum": "A2-sc", "p": 0, "max_len": 3, "top_count": None},
}

# GL2 p=2 table the tables workload loads: every element up to this length.
TABLES_FIXTURE = {"datum": "GL2", "p": 2, "max_len": 3}

# name, datum, characteristic (2: the loaded fixture, 0: kl route), L, K, max_len
TABLE_JOBS = (
    ("gl2-p2-iwahori", "GL2", 2, (), (), 3),
    ("gl2-p2-0-s0", "GL2", 2, (), (0,), 3),
    ("a2-iwahori", "A2-sc", 0, (), (), 4),
    ("a2-s0-s1s2", "A2-sc", 0, (0,), (1, 2), 7),
    ("b2-s0-s1", "B2-sc", 0, (0,), (1,), 6),
    ("g2-s0-s1", "G2-sc", 0, (0,), (1,), 6),
)

FORMATS = ("json", "csv", "text", "tex")

NAMES = tuple(PCAN) + ("tables",)


def pcan_elements(datum, spec, seed):
    """Elements to ensure, lengths ascending, shuffled within each length."""
    from affkl.weyl import enumerate_elements

    elements = enumerate_elements(datum, spec["max_len"])
    top = [w for w in elements if w.length == spec["max_len"]]
    if spec["top_count"] is not None:
        top = top[:spec["top_count"]]
    rng = random.Random(seed)
    out = []
    for n in range(spec["max_len"]):
        layer = [w for w in elements if w.length == n]
        rng.shuffle(layer)
        out.extend(layer)
    rng.shuffle(top)
    return out + top


def table_jobs(seed):
    jobs = list(TABLE_JOBS)
    random.Random(seed).shuffle(jobs)
    return jobs
