import json
import subprocess
import sys

import pytest

from affkl import cache as cachemod
from affkl.errors import CacheCorrupt
from affkl.soergel import PCanTable
from affkl.weyl import enumerate_elements


def test_save_load_round_trip(gl2, tmp_path):
    table = PCanTable(gl2, 2)
    for u in enumerate_elements(gl2, 3):
        table.ensure(u)
    path = tmp_path / "cache.json"
    cachemod.save_table(table, str(path))
    loaded = cachemod.load_table(str(path))
    assert loaded.entries == table.entries
    assert set(loaded.reps) == set(table.reps)
    for w, rep in loaded.reps.items():
        orig = table.reps[w]
        assert rep.degrees == orig.degrees
        assert rep.act == orig.act
        assert rep.labels == orig.labels
        rep.validate()
    # a loaded table can continue the recursion
    for u in enumerate_elements(gl2, 4):
        loaded.ensure(u)
    fresh = PCanTable(gl2, 2)
    for u in enumerate_elements(gl2, 4):
        fresh.ensure(u)
    assert loaded.entries == fresh.entries


def test_verify_and_tamper(gl2, tmp_path):
    table = PCanTable(gl2, 2)
    for u in enumerate_elements(gl2, 2):
        table.ensure(u)
    path = tmp_path / "cache.json"
    cachemod.save_table(table, str(path))
    keys = cachemod.verify(str(path))
    assert len(keys) == len(table.entries)
    doc = json.loads(path.read_text())
    key = sorted(doc["entries"])[1]
    coeffs = doc["entries"][key]["coeffs"]
    inner = sorted(coeffs)[0]
    exp = sorted(coeffs[inner])[0]
    coeffs[inner][exp] = 777
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheCorrupt) as err:
        cachemod.verify(str(path))
    assert key in str(err.value)


def _saved_gl2_table(gl2, path):
    """Save the GL2 p=2 table up to length 2; return its document and the
    key of a stored representative of rank > 1."""
    table = PCanTable(gl2, 2)
    for u in enumerate_elements(gl2, 2):
        table.ensure(u)
    cachemod.save_table(table, str(path))
    doc = json.loads(path.read_text())
    key = next(k for k in sorted(doc["reps"])
               if len(doc["reps"][k]["degrees"]) > 1)
    return doc, key


def _edit_act(rep):
    # breaks validate(): the right actions no longer commute
    act = rep["act"][0]
    act[0][0] = "0" if act[0][0] != "0" else "1*x0"


def test_verify_detects_tampered_rep(gl2, tmp_path):
    path = tmp_path / "cache.json"
    clean, key = _saved_gl2_table(gl2, path)

    def shift_degrees(rep):
        # a valid bimodule, but not isomorphic to the recomputed one
        rep["degrees"] = [d + 2 for d in rep["degrees"]]

    for tamper in (_edit_act, shift_degrees):
        doc = json.loads(json.dumps(clean))
        tamper(doc["reps"][key])
        path.write_text(json.dumps(doc))
        with pytest.raises(CacheCorrupt) as err:
            cachemod.verify(str(path))
        assert key in str(err.value)
        assert "representative" in str(err.value)


def test_validate_rejects_tampered_rep_under_optimize(gl2, tmp_path,
                                                     child_env):
    # `python -O` strips assert statements; validate() must still raise
    path = tmp_path / "cache.json"
    doc, key = _saved_gl2_table(gl2, path)
    _edit_act(doc["reps"][key])
    path.write_text(json.dumps(doc))
    code = (
        "import sys\n"
        "from affkl import cache\n"
        "from affkl.errors import CacheCorrupt\n"
        "assert False, 'asserts are on'\n"
        "table = cache.load_table(sys.argv[1])\n"
        "rep = next(r for w, r in table.reps.items()\n"
        "           if w.canonical_str() == sys.argv[2])\n"
        "try:\n"
        "    rep.validate()\n"
        "except ValueError as exc:\n"
        "    print('validate:', exc)\n"
        "try:\n"
        "    cache.verify(sys.argv[1])\n"
        "except CacheCorrupt as exc:\n"
        "    print('verify:', exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(path), key],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "validate: right actions of x0, x1 do not commute"
    assert lines[1].startswith(f"verify: representative {key} is invalid")


def test_gc(gl2, tmp_path):
    table = PCanTable(gl2, 2)
    for u in enumerate_elements(gl2, 2):
        table.ensure(u)
    path = tmp_path / "cache.json"
    cachemod.save_table(table, str(path))
    doc = json.loads(path.read_text())
    key = sorted(doc["entries"])[0]
    doc["entries"][key]["rhash"] = "stale"
    path.write_text(json.dumps(doc))
    result = cachemod.gc(str(path))
    assert result["dropped"] == 1
    loaded = cachemod.load_table(str(path))
    assert len(loaded.entries) == len(table.entries) - 1


def test_cli_check_exit_codes(run_cli):
    assert run_cli(["check", "--datum", "GL2", "--p", "5"]).returncode == 0
    assert run_cli(["check", "--datum", "B2-sc", "--p", "2"]).returncode == 1
    r = run_cli(["check", "--datum", "B2-sc", "--p", "2",
                 "--override-assumptions"])
    assert r.returncode == 0
    assert run_cli(["check", "--datum", "NOPE", "--p", "2"]).returncode == 2
    assert run_cli(["check", "--datum", "GL2", "--p", "4"]).returncode == 2


def test_cli_pkl(run_cli):
    r = run_cli(["pkl", "--datum", "GL2", "--p", "2", "--w", "s1"])
    assert r.returncode == 0
    assert r.stdout.strip() == "H[s1] + v*H[e]"
    # cache hit on the second run, observable in --stats
    r1 = run_cli(["pkl", "--datum", "GL2", "--p", "2", "--w", "s1", "--stats"])
    stats = json.loads(r1.stderr.strip().splitlines()[-1])
    assert stats["computed"] == 0 and stats["cache_hits"] >= 1
    # char 0 agrees with the canonical recursion
    r2 = run_cli(["pkl", "--datum", "GL2", "--p", "0", "--w", "s1 s0 s1"])
    assert "H[s1 s0 s1]" in r2.stdout
    r3 = run_cli(["pkl", "--datum", "GL2", "--p", "2", "--w", "x9"])
    assert r3.returncode == 2


def test_cli_pkl_assumption_gate(run_cli):
    r = run_cli(["pkl", "--datum", "B2-sc", "--p", "2", "--w", "s0"])
    assert r.returncode == 1
    assert "standing assumptions fail" in r.stderr


def test_cli_tilt_and_determinism(run_cli):
    args = ["tilt", "--datum", "GL2", "--p", "2", "--max-len", "3",
            "--format", "csv"]
    r1 = run_cli(args)
    assert r1.returncode == 0
    assert r1.stdout.splitlines()[0].startswith("w\\y,")
    r2 = run_cli(args)
    assert r2.stdout == r1.stdout
    rk = run_cli(["tilt", "--datum", "GL2", "--p", "2", "--K", "s0",
                  "--max-len", "3", "--format", "json"])
    doc = json.loads(rk.stdout)
    assert doc["K"] == [0]
    rbad = run_cli(["tilt", "--datum", "GL2", "--p", "2", "--K", "s0 s1",
                    "--max-len", "2"])
    assert rbad.returncode == 4


def test_cli_cache_flow(run_cli, tmp_path):
    run_cli(["pkl", "--datum", "GL2", "--p", "2", "--w", "s0 s1"])
    r = run_cli(["cache", "inspect", "--datum", "GL2", "--p", "2"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["entries"] >= 3
    r = run_cli(["cache", "verify", "--datum", "GL2", "--p", "2"])
    assert r.returncode == 0
    # tamper and expect exit 5
    import pathlib

    path = pathlib.Path(tmp_path) / "affkl_cache"
    cache_file = next(path.glob("*.json"))
    doc = json.loads(cache_file.read_text())
    key = sorted(doc["entries"])[-1]
    inner = sorted(doc["entries"][key]["coeffs"])[0]
    exp = sorted(doc["entries"][key]["coeffs"][inner])[0]
    doc["entries"][key]["coeffs"][inner][exp] = 555
    cache_file.write_text(json.dumps(doc))
    r = run_cli(["cache", "verify", "--datum", "GL2", "--p", "2"])
    assert r.returncode == 5
    assert key in r.stderr


def test_cli_datum_file(gl2, run_cli, tmp_path):
    import pathlib

    doc = gl2.to_json()
    path = pathlib.Path(tmp_path) / "mydatum.json"
    path.write_text(json.dumps(doc))
    r = run_cli(["check", "--datum-file", str(path), "--p", "3"])
    assert r.returncode == 0


def test_failed_write_keeps_old_document(gl2, tmp_path, monkeypatch):
    table = PCanTable(gl2, 2)
    for u in enumerate_elements(gl2, 2):
        table.ensure(u)
    path = tmp_path / "cache.json"
    cachemod.save_table(table, str(path))
    old = path.read_bytes()

    def dump_then_fail(doc, fh, **kwargs):
        fh.write('{"format": ')
        raise OSError("disk full")

    monkeypatch.setattr(cachemod.json, "dump", dump_then_fail)
    table.ensure(enumerate_elements(gl2, 3)[-1])
    for write in (lambda: cachemod.save_table(table, str(path)),
                  lambda: cachemod.gc(str(path))):
        with pytest.raises(OSError, match="disk full"):
            write()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
