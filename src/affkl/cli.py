"""Command-line surface: assumption checks, basis expansions, multiplicity
tables, and cache management.

Exit codes are part of the stable interface:
  0 success, 1 failed assumptions, 2 malformed configuration,
  3 solver failure, 4 non-finitary parabolic input, 5 cache corruption.
"""

import argparse
import json
import os
import sys
import time

from . import cache as cachemod
from .errors import (
    AffklError,
    AssumptionsFailed,
    CacheCorrupt,
    IdentificationFailure,
    MalformedDatum,
    NotFinitary,
    SolverError,
    SplitOverExtensionNeeded,
)
from .rootdata import build_root_datum, check_assumptions, load_root_datum
from .serialize import parse_element_grammar, parse_reflection
from .soergel import PCanTable, p_canonical
from .tilt import mult_table
from .weyl import omega_elements

EXIT_OK = 0
EXIT_ASSUMPTIONS = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_FINITARY = 4
EXIT_CACHE = 5


def _add_common(p):
    p.add_argument("--datum", help="bundled datum name (e.g. GL2, A2-sc)")
    p.add_argument("--datum-file", help="path to a datum JSON document")
    p.add_argument("--p", type=int, default=0, help="characteristic (0 or prime)")
    p.add_argument("--cache", help="cache file path (default: derived)")
    p.add_argument("--override-assumptions", action="store_true")
    p.add_argument("--stats", action="store_true",
                   help="print timing/counter stats to stderr")
    p.add_argument("--omega-bound", type=int, default=0,
                   help="include length-zero sectors generated within this bound")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="affkl",
        description="Canonical/p-canonical basis expansions and tilting "
                    "multiplicity tables for extended affine Weyl groups.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate the standing assumptions")
    _add_common(p_check)

    p_pkl = sub.add_parser("pkl", help="print one basis expansion")
    _add_common(p_pkl)
    p_pkl.add_argument("--w", required=True,
                       help="element, e.g. 's0 s1' or 'omega:<form> s0'")
    p_pkl.add_argument("--y", help="print only the coefficient at this element")

    p_tilt = sub.add_parser("tilt", help="write a multiplicity table")
    _add_common(p_tilt)
    p_tilt.add_argument("--L", default="", help="left finitary set, e.g. 's0 s1'")
    p_tilt.add_argument("--K", default="", help="right finitary set")
    p_tilt.add_argument("--max-len", type=int, default=3)
    p_tilt.add_argument("--format", default="text",
                        choices=["json", "csv", "text", "tex"])
    p_tilt.add_argument("--output", help="output path (default: stdout)")

    p_cache = sub.add_parser("cache", help="inspect, verify, or gc a cache file")
    _add_common(p_cache)
    p_cache.add_argument("action", choices=["inspect", "verify", "gc"])
    p_cache.add_argument("--sample", type=int,
                         help="verify only this many entries")
    return ap


def _datum_from_args(args):
    if args.datum_file:
        return load_root_datum(args.datum_file)
    if args.datum:
        return build_root_datum(args.datum)
    raise MalformedDatum("pass --datum or --datum-file")


def _validate_p(p):
    if p == 0:
        return
    if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise MalformedDatum(f"--p must be 0 or prime, got {p}")


def _table_for(args, datum):
    source = "kl" if args.p == 0 else "soergel"
    path = args.cache or cachemod.default_cache_path(datum, args.p)
    if os.path.exists(path):
        table = cachemod.load_table(path, datum=datum)
        if table.char != args.p or table.source != source:
            raise CacheCorrupt(f"{path} holds a different table")
    else:
        table = PCanTable(datum, args.p, source=source)
    return table, path


def cmd_check(args):
    datum = _datum_from_args(args)
    _validate_p(args.p)
    if args.p == 0:
        print("characteristic 0: no assumptions to check")
        return EXIT_OK
    report = check_assumptions(datum, args.p)
    print(report.render())
    if report.all_ok:
        return EXIT_OK
    if args.override_assumptions:
        print("warning: assumptions fail but --override-assumptions is set",
              file=sys.stderr)
        return EXIT_OK
    return EXIT_ASSUMPTIONS


def cmd_pkl(args):
    datum = _datum_from_args(args)
    _validate_p(args.p)
    _gate_assumptions(args, datum)
    t0 = time.time()
    table, path = _table_for(args, datum)
    w = parse_element_grammar(datum, args.w)
    expansion = p_canonical(w, table)
    if args.y is not None:
        y = parse_element_grammar(datum, args.y)
        print(expansion.coeff(y))
    else:
        print(repr(expansion))
    cachemod.save_table(table, path)
    if args.stats:
        stats = dict(table.stats)
        stats["elapsed_s"] = round(time.time() - t0, 6)
        print(json.dumps(stats, sort_keys=True), file=sys.stderr)
    return EXIT_OK


def _gate_assumptions(args, datum):
    if args.p > 0 and not args.override_assumptions:
        report = check_assumptions(datum, args.p)
        if not report.all_ok:
            raise AssumptionsFailed(
                "standing assumptions fail (use --override-assumptions):\n"
                + report.render())


def cmd_tilt(args):
    datum = _datum_from_args(args)
    _validate_p(args.p)
    _gate_assumptions(args, datum)
    t0 = time.time()
    table, path = _table_for(args, datum)
    L = [parse_reflection(datum, tok) for tok in args.L.split()]
    K = [parse_reflection(datum, tok) for tok in args.K.split()]
    omegas = None
    sector = "waff_only"
    if args.omega_bound > 0:
        omegas = omega_elements(datum, bound=args.omega_bound)
        sector = "all"
    mt = mult_table(L, K, args.max_len, table, sector=sector, omegas=omegas)
    # the table names the cache this run leaves on disk
    cachemod.save_table(table, path)
    mt.metadata.update({
        "tool_version": _version(),
        "cache_hash": cachemod.file_hash(path),
        "datum_name": datum.name,
    })
    text = mt.render(args.format)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.stats:
        stats = dict(table.stats)
        stats["elapsed_s"] = round(time.time() - t0, 6)
        print(json.dumps(stats, sort_keys=True), file=sys.stderr)
    return EXIT_OK


def cmd_cache(args):
    path = args.cache
    if not path:
        if args.datum or args.datum_file:
            datum = _datum_from_args(args)
            path = cachemod.default_cache_path(datum, args.p)
        else:
            raise MalformedDatum("pass --cache or --datum/--p")
    if args.action != "gc" and not os.path.exists(path):
        raise MalformedDatum(f"no cache file at {path}")
    if args.action == "inspect":
        print(json.dumps(cachemod.inspect(path), indent=2, sort_keys=True))
        return EXIT_OK
    if args.action == "verify":
        keys = cachemod.verify(path, sample=args.sample)
        print(f"verified {len(keys)} entries: ok")
        return EXIT_OK
    if not os.path.exists(path):
        print("nothing to collect")
        return EXIT_OK
    result = cachemod.gc(path)
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def _version():
    from . import __version__

    return __version__


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "check": cmd_check,
        "pkl": cmd_pkl,
        "tilt": cmd_tilt,
        "cache": cmd_cache,
    }
    try:
        return handlers[args.command](args)
    except AssumptionsFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTIONS
    except (MalformedDatum, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NotFinitary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINITARY
    except CacheCorrupt as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except (SolverError, IdentificationFailure, SplitOverExtensionNeeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except AffklError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
