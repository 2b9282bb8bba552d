"""One pass of a workload in a fresh interpreter.

Modes:
  pass     set up, run the timed phase, check every output, print one JSON line;
  setup    set up, print the set-up time and exit;
  fixture  build and save the GL2 p=2 table the tables workload loads;
  golden   set up, run the operations and write their outputs as the goldens.

Set-up time runs from --spawned-ns (time.monotonic_ns() of the parent just
before it started the first process of the pass) to the start of the timed
phase.  It covers interpreter start, importing affkl, numpy and sympy
(fdalg imports sympy lazily), building the datum and realization,
check_assumptions, the fixtures and, for the tables workload, the separate
fixture process.
"""

import argparse
import json
import os
import platform
import resource
import time
import traceback

import numpy
import sympy

import affkl
from affkl import cache, hecke, soergel, tilt, weyl
from affkl.laurent import LaurentPoly, ONE
from affkl.rootdata import build_root_datum, check_assumptions

import workloads
from layers import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "goldens")

# layers each workload must reach, and layers the tables workload must not
EXPECTED = {
    "pcan": ("soergel", "bimodule", "homs", "linalg", "fdalg", "hecke",
             "weyl", "cache"),
    "tables": ("soergel", "hecke", "weyl", "tilt", "cache"),
}
ABSENT = {"pcan": ("tilt",), "tables": ("bimodule", "homs", "linalg", "fdalg")}

TORSION = LaurentPoly({0: 1, 2: 1})   # p_kl(s1, s1 s0 s1) for GL2 at p=2
CALIBRATION_LOOPS = 1_000_000


def _canon(obj):
    return json.dumps(obj, sort_keys=True)


def _fixture_path(tmp):
    return os.path.join(tmp, "gl2-p2.json")


def build_fixture(tmp):
    spec = workloads.TABLES_FIXTURE
    datum = build_root_datum(spec["datum"])
    table = soergel.PCanTable(datum, spec["p"])
    for w in weyl.enumerate_elements(datum, spec["max_len"]):
        table.ensure(w)
    cache.save_table(table, _fixture_path(tmp))


class Pcan:
    """Ensure elements in length order, then save the table."""

    kind = "pcan"

    def __init__(self, name, seed, tmp):
        spec = workloads.PCAN[name]
        self.char = spec["p"]
        self.datum = build_root_datum(spec["datum"])
        if self.char and not check_assumptions(self.datum, self.char).all_ok:
            raise SystemExit(f"assumptions fail for {name}")
        self.table = soergel.PCanTable(self.datum, self.char)
        self.elements = workloads.pcan_elements(self.datum, spec, seed)
        self.path = os.path.join(tmp, "table.json")

    def ops(self):
        table = self.table
        out = [(w.canonical_str(), lambda w=w: table.ensure(w))
               for w in self.elements]
        out.append(("save_table", lambda: cache.save_table(table, self.path)))
        return out

    def golden_value(self, label, out):
        return None if label == "save_table" else out.to_json()

    def check(self, label, out, golden):
        if label == "save_table":
            loaded = cache.load_table(self.path, datum=self.datum)
            if loaded.entries != self.table.entries:
                return ["reloaded cache entries differ from the table"]
            if set(loaded.reps) != set(self.table.reps):
                return ["reloaded cache representatives differ from the table"]
            return []
        errors = []
        if _canon(out.to_json()) != _canon(golden[label]):
            errors.append("expansion differs from the golden")
        w = next(x for x in self.elements if x.canonical_str() == label)
        if out.coeff(w) != ONE:
            errors.append(f"top coefficient {out.coeff(w)}")
        if not all(weyl.bruhat_leq(z, w) for z in out.support()):
            errors.append("support leaves the Bruhat interval")
        if self.char == 0 and out != hecke.canonical_basis(w):
            errors.append("differs from hecke.canonical_basis")
        return errors


class Tables:
    """Load the GL2 p=2 table, build multiplicity tables, render them."""

    kind = "tables"

    def __init__(self, name, seed, tmp):
        self.path = _fixture_path(tmp)
        self.gl2 = build_root_datum(workloads.TABLES_FIXTURE["datum"])
        if not check_assumptions(self.gl2, workloads.TABLES_FIXTURE["p"]).all_ok:
            raise SystemExit("assumptions fail for the GL2 fixture")
        self.kl = {}          # datum name -> kl-route table
        self.jobs = []        # (name, kl datum name or None for the fixture, L, K, max_len)
        for job, dname, char, L, K, max_len in workloads.table_jobs(seed):
            if char:
                datum, dname = self.gl2, None
            else:
                if dname not in self.kl:
                    self.kl[dname] = soergel.PCanTable(
                        build_root_datum(dname), 0, source="kl")
                datum = self.kl[dname].datum
            refls = weyl.simple_reflections(datum, conj_search=False)
            self.jobs.append((job, dname, [refls[i] for i in L],
                              [refls[i] for i in K], max_len))
        self.loaded = None

    def _load(self):
        self.loaded = cache.load_table(self.path, datum=self.gl2)
        return self.loaded

    def _job(self, dname, L, K, max_len):
        table = self.kl[dname] if dname else self.loaded
        mt = tilt.mult_table(L, K, max_len, table)
        return {fmt: mt.render(fmt) for fmt in workloads.FORMATS}

    def ops(self):
        out = [("load_table", self._load)]
        for job, dname, L, K, max_len in self.jobs:
            out.append((job, lambda a=(dname, L, K, max_len): self._job(*a)))
        return out

    def golden_value(self, label, out):
        return None if label == "load_table" else out

    def check(self, label, out, golden):
        if label == "load_table":
            w = weyl.element_from_word(self.gl2, [1, 0, 1])
            y = weyl.element_from_word(self.gl2, [1])
            got = soergel.p_kl(y, w, out)
            return [] if got == TORSION else [f"p_kl(s1, s1 s0 s1) = {got}"]
        return [] if out == golden[label] else ["rendered table differs from the golden"]


def run_ops(work, rec):
    """The timed phase: every operation once, in order."""
    results = []
    cpu = time.process_time()
    start = time.perf_counter()
    for i, (label, fn) in enumerate(work.ops()):
        if rec:
            rec.op = i
        t = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception:   # an operation that raises counts as failed
            out, err = None, traceback.format_exc()
        results.append((label, time.perf_counter() - t, out, err))
    return results, time.perf_counter() - start, time.process_time() - cpu


def calibration_s():
    """Time of a fixed pure-Python loop, so that passes taken while the host
    ran at different speeds can be told apart in the raw record."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def check_layers(kind, metrics):
    for layer in EXPECTED[kind]:
        if metrics[f"{layer}.calls"] == 0:
            raise SystemExit(f"layer {layer} recorded no calls")
    for layer in ABSENT[kind]:
        if metrics[f"{layer}.calls"] != 0:
            raise SystemExit(f"layer {layer} ran {metrics[f'{layer}.calls']} calls")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("pass", "setup", "fixture", "golden"),
                    default="pass")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-ns", type=int, default=None)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans", help="file for the spans of a traced pass")
    args = ap.parse_args(argv)
    spawned = args.spawned_ns or time.monotonic_ns()

    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.abspath(affkl.__file__).startswith(src + os.sep):
        raise SystemExit(f"affkl imported from {affkl.__file__}, not {src}")
    if args.mode == "fixture":
        build_fixture(args.tmp)
        return
    cls = Tables if args.workload == "tables" else Pcan
    work = cls(args.workload, args.seed, args.tmp)
    golden_path = os.path.join(GOLDEN_DIR, f"{args.workload}.json")
    golden = None
    if args.mode != "golden":
        with open(golden_path) as fh:
            golden = json.load(fh)
    rec = Recorder() if args.trace else None
    if rec:
        rec.install()
    setup_s = (time.monotonic_ns() - spawned) / 1e9
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    results, wall_s, cpu_s = run_ops(work, rec)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layer_metrics = None
    if rec:
        rec.uninstall()
        layer_metrics = rec.metrics(wall_s)
        check_layers(work.kind, layer_metrics)
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in rec.spans:
                    fh.write(json.dumps(span) + "\n")

    if args.mode == "golden":
        outputs = {label: work.golden_value(label, out)
                   for label, _, out, _ in results}
        errors = [f"{label}: {err}" for label, _, _, err in results if err]
        if errors:
            raise SystemExit("\n".join(errors))
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(golden_path, "w") as fh:
            json.dump({k: v for k, v in outputs.items() if v is not None},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(json.dumps({"golden": golden_path}))
        return

    ops = []
    for label, seconds, out, err in results:
        errors = [err] if err else work.check(label, out, golden)
        ops.append({"op": label, "seconds": seconds, "errors": errors})
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "calib_s": calibration_s(),
        "rss_mb": rss_mb,
        "ops": ops,
        "layers": layer_metrics,
        "entry_calls": dict(rec.entry_calls) if rec else None,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "sympy": sympy.__version__},
    }))


if __name__ == "__main__":
    main()
