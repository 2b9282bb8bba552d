import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import affkl
from affkl import build_root_datum
from affkl.weyl import element_from_word, omega_elements, simple_reflections


@pytest.fixture(scope="session")
def gl2():
    return build_root_datum("GL2")


@pytest.fixture(scope="session")
def a2():
    return build_root_datum("A2-sc")


@pytest.fixture(scope="session")
def a3():
    return build_root_datum("A3-sc")


@pytest.fixture(scope="session")
def a1sc():
    return build_root_datum("A1-sc")


# The directory that holds the imported ``affkl`` package: ``src/`` when the
# suite runs with ``PYTHONPATH=src``, ``site-packages`` for an installed copy.
# A relative ``PYTHONPATH`` would resolve against the child's own working
# directory, so the child gets this absolute path first.
AFFKL_IMPORT_ROOT = str(Path(affkl.__file__).resolve().parent.parent)


@pytest.fixture
def child_env():
    """Environment for a child interpreter that must import this ``affkl``."""
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=AFFKL_IMPORT_ROOT
                + (os.pathsep + inherited if inherited else ""))


@pytest.fixture
def run_cli(tmp_path, child_env):
    """Run ``python -m affkl.cli ARGS`` in ``tmp_path``; return the process.

    The working directory is private to the test, so the CLI's default
    ``affkl_cache/`` lands there.  A child that cannot import ``affkl``
    fails the test outright instead of reporting a CLI exit code.
    """

    def run(args):
        proc = subprocess.run([sys.executable, "-m", "affkl.cli"] + args,
                              capture_output=True, text=True, cwd=tmp_path,
                              env=child_env)
        if "No module named 'affkl'" in proc.stderr:
            pytest.fail("the CLI child process could not import affkl "
                        f"(PYTHONPATH={child_env['PYTHONPATH']!r}):\n"
                        f"{proc.stderr}")
        return proc

    return run


def random_elements(datum, count, max_word=8, seed=7, with_omega=True):
    rng = random.Random(seed)
    refls = simple_reflections(datum, conj_search=False)
    omegas = omega_elements(datum, bound=1) if with_omega else None
    out = []
    for _ in range(count):
        word = [rng.randrange(len(refls)) for _ in range(rng.randrange(max_word))]
        om = rng.choice(omegas) if omegas else None
        out.append(element_from_word(datum, word, omega=om))
    return out
