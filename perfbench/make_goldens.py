"""Write perfbench/goldens/<workload>.json from the affkl sources in this
checkout: the expansion of every ensured element (HeckeElt.to_json) and the
rendered text of every table.  Run from the checkout root:

    python3 perfbench/make_goldens.py
"""

import argparse
import os
import shutil

import workloads
from run import Runner


def main():
    for name in workloads.NAMES:
        runner = Runner(argparse.Namespace(workload=name, seed=0, trace=0,
                                           seconds=60))
        os.makedirs(runner.tmp, exist_ok=True)
        try:
            runner.sample("golden")
        finally:
            shutil.rmtree(runner.tmp, ignore_errors=True)
        print(f"wrote goldens for {name}")


if __name__ == "__main__":
    main()
