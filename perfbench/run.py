"""affkl benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; affkl is imported from its src/.
A run is a closed loop of passes.  Each pass starts fresh interpreters (the
tables workload first runs a separate process that builds its cache
fixture), so module-level caches start empty as in a CLI run.  Passes start
while the median pass so far still fits in --seconds; then set-up-only
processes top the set-up samples up to MIN_SETUPS.  Reported values are
medians over passes.  With --trace 0 the metrics are the end-to-end ones in
BENCHMARK.json, with --trace 1 the per-layer ones.  The last line of stdout
is the result object; a full record goes to .perfbench/results/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_SETUPS = 3
# every child is killed once the run is --seconds plus this old
RUN_MARGIN_S = 140
# BLAS and OpenMP pools pinned to one thread: each pass is a single-threaded process
THREAD_ENV = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.tmp = os.path.join(ROOT, ".perfbench", "tmp",
                                f"{args.workload}-s{args.seed}-{os.getpid()}")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0", **THREAD_ENV)

    def _child(self, mode, spawned_ns, extra=()):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--tmp", self.tmp, "--spawned-ns", str(spawned_ns), *extra]
        left = (self.args.seconds + RUN_MARGIN_S
                - (time.monotonic() - self.started))
        if left <= 0:
            raise BenchError("run time limit reached")
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=left,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                             f"{proc.stderr}")
        return proc.stdout

    def sample(self, mode, spans=None):
        """One pass (mode "pass") or one set-up probe (mode "setup")."""
        spawned = time.monotonic_ns()
        if self.args.workload == "tables":
            self._child("fixture", spawned)
        extra = ["--trace", str(self.args.trace)]
        if spans:
            extra += ["--spans", spans]
        out = self._child(mode, spawned, extra)
        return json.loads(out.strip().splitlines()[-1])

    def run(self):
        os.makedirs(self.tmp, exist_ok=True)
        passes, durations, setups = [], [], []
        # spans of the latest traced run of each workload; older ones are dropped
        spans_dir = os.path.join(ROOT, ".perfbench", "spans", self.args.workload)
        if self.args.trace:
            shutil.rmtree(spans_dir, ignore_errors=True)
            os.makedirs(spans_dir)
        window = time.monotonic()
        while not passes or (time.monotonic() - window
                             + statistics.median(durations) <= self.args.seconds):
            spans = None
            if self.args.trace:
                spans = os.path.join(spans_dir, f"pass{len(passes)}.jsonl")
            t = time.monotonic()
            passes.append(self.sample("pass", spans))
            durations.append(time.monotonic() - t)
            setups.append(passes[-1]["setup_s"])
        while len(setups) < MIN_SETUPS:
            setups.append(self.sample("setup")["setup_s"])
        return passes, setups


def end_to_end(passes, setups):
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "slowest_op_s": statistics.median(
            max(op["seconds"] for op in p["ops"]) for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(passes):
    return {key: statistics.median(p["layers"][key] for p in passes)
            for key in passes[0]["layers"]}


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "affkl", "__init__.py")):
        print(f"error: no affkl sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    runner = Runner(args)
    try:
        passes, setups = runner.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)

    values = per_layer(passes) if args.trace else end_to_end(passes, setups)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    attempted = sum(len(p["ops"]) for p in passes)
    failures = [f"pass {i} {op['op']}: {e}" for i, p in enumerate(passes)
                for op in p["ops"] for e in op["errors"]]
    failed = sum(1 for p in passes for op in p["ops"] if op["errors"])
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "setup_samples": len(setups),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": {"value": failed / attempted, "unit": "ratio",
                        "better": "lower"},
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"],
                                "better": m["better"]} for m in listed},
        "raw": {"setup_s": setups,
                "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "calib_s",
                                                "rss_mb", "ops", "layers")}
                           for p in passes],
                "entry_calls": passes[0]["entry_calls"]},
        "failures": failures,
        "machine": {"nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0)),
                    **passes[0]["versions"]},
        "git_sha": git_sha(),
    }
    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
