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


def test_rep_character_is_checked_on_load(gl2, tmp_path):
    # the split decision for rep(w)·B_s reads the stored character of rep(w)
    path = tmp_path / "cache.json"
    doc, key = _saved_gl2_table(gl2, path)
    char = doc["reps"][key]["char"]
    assert char == doc["entries"][key]["coeffs"]
    inner = sorted(char)[0]
    exp = sorted(char[inner])[0]
    char[inner][exp] += 1
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheCorrupt) as err:
        cachemod.load_table(str(path))
    assert key in str(err.value)


def test_missing_rep_is_reported_on_load(gl2, tmp_path, run_cli):
    path = tmp_path / "cache.json"
    table = PCanTable(gl2, 2)
    for u in enumerate_elements(gl2, 1):
        table.ensure(u)
    cachemod.save_table(table, str(path))
    doc = json.loads(path.read_text())
    key = next(k for k in sorted(doc["reps"]) if k in doc["entries"]
               and not k.startswith("e;"))
    del doc["reps"][key]
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheCorrupt) as err:
        cachemod.load_table(str(path))
    assert key in str(err.value)
    r = run_cli(["cache", "verify", "--cache", str(path)])
    assert r.returncode == 5
    assert key in r.stderr


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
    # s1 s0 is proved indecomposable by its character: no End^0 split
    r4 = run_cli(["pkl", "--datum", "GL2", "--p", "2", "--w", "s1 s0",
                  "--stats", "--cache", "fresh.json"])
    assert r4.returncode == 0
    stats = json.loads(r4.stderr.strip().splitlines()[-1])
    assert stats["splits_skipped"] >= 1
    # s1 s0 is s0 s1 conjugated by a length-zero element: no split either
    assert stats["transported"] >= 1
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


def test_cli_tilt_names_the_cache_it_leaves(run_cli, tmp_path):
    # cache_hash is the hash of the file on disk after the run, both when
    # the run creates the cache and when it extends it
    for max_len in ("2", "3"):
        r = run_cli(["tilt", "--datum", "GL2", "--p", "2", "--max-len",
                     max_len, "--format", "json"])
        assert r.returncode == 0, r.stderr
        cache_file = next((tmp_path / "affkl_cache").glob("*.json"))
        assert json.loads(r.stdout)["metadata"]["cache_hash"] == \
            cachemod.file_hash(str(cache_file))


def test_cli_omega_form_must_be_canonical(run_cli):
    ok = run_cli(["pkl", "--datum", "GL2", "--p", "0", "--w", "omega:0;0,1 s0"])
    assert ok.returncode == 0, ok.stderr
    r = run_cli(["pkl", "--datum", "GL2", "--p", "0", "--w",
                 "omega:0;00,1 s0"])
    assert r.returncode == 2
    assert "canonical spelling is '0;0,1'" in r.stderr


def test_python_m_affkl_runs_the_cli(run_cli, tmp_path, child_env):
    args = ["tilt", "--datum", "GL2", "--p", "2", "--max-len", "2",
            "--format", "csv"]
    expected = run_cli(args)
    assert expected.returncode == 0, expected.stderr
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    r = subprocess.run([sys.executable, "-m", "affkl"] + args,
                       capture_output=True, text=True, cwd=fresh,
                       env=child_env)
    assert r.returncode == 0, r.stderr
    assert r.stdout == expected.stdout


def test_cli_tilt_rejects_bad_reflection_sets(run_cli):
    base = ["tilt", "--datum", "GL2", "--p", "2", "--max-len", "1"]
    r = run_cli(base + ["--L", "s9"])
    assert r.returncode == 2
    assert "reflection index 9 out of range" in r.stderr
    r = run_cli(base + ["--K", "t0"])
    assert r.returncode == 2
    assert "bad reflection token 't0'" in r.stderr


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


def test_cli_unparsable_cache_data_exits_5(run_cli, tmp_path):
    # a stored key or polynomial that does not parse is a damaged cache
    # (exit 5), not a bad configuration (exit 2)
    run_cli(["pkl", "--datum", "GL2", "--p", "2", "--w", "s0 s1"])
    cache_file = next((tmp_path / "affkl_cache").glob("*.json"))
    clean = json.loads(cache_file.read_text())

    def bad_key(doc):
        entries = doc["entries"]
        entries["-1;0,0"] = entries.pop(sorted(entries)[-1])
        return "-1;0,0"

    def bad_act(doc):
        # x9 is beyond the rank of GL2
        key = next(k for k in sorted(doc["reps"])
                   if len(doc["reps"][k]["degrees"]) > 1)
        doc["reps"][key]["act"][0][0][0] = "1*x9"
        return key

    def coeffs(value):
        # the entry of s0 with its own coefficient map replaced by value
        def damage(doc):
            doc["entries"]["0;0,0"]["coeffs"]["0;0,0"] = value
            return "0;0,0"
        return damage

    def entry_coeffs_as_list(doc):
        doc["entries"]["0;0,0"]["coeffs"] = [{"0": 1}]
        return "0;0,0"

    def rep_char(doc):
        doc["reps"]["0;0,0"]["char"]["0;0,0"] = {"0": 1.5}
        return "0;0,0"

    # a second spelling of an element, as an entry, coefficient or label
    # key, must not be read as the element
    def entry_key_spelling(doc):
        doc["entries"]["0;00,0"] = doc["entries"]["0;0,0"]
        return "0;00,0"

    def coeff_key_spelling(doc):
        doc["entries"]["0;0,0"]["coeffs"]["0;00,0"] = {"1": 5}
        return "0;0,0"

    def label_key_spelling(doc):
        labels = doc["reps"]["0;0,0"]["labels"]
        assert labels[0][0] == "e;0,0"
        labels[0][0] = "0.0;0,0"
        return "0;0,0"

    # a float, a bool, a zero or a non-canonical exponent must not be read
    # as a nearby int
    tampers = (bad_key, bad_act, coeffs({"0": 1.5}), coeffs({"0": True}),
               coeffs({"0_0": 1}), coeffs({"+0": 1}), coeffs({"0": 1, "2": 0}),
               coeffs({"0": "1"}), coeffs([1]), coeffs({}),
               entry_coeffs_as_list, rep_char, entry_key_spelling,
               coeff_key_spelling, label_key_spelling)
    for tamper in tampers:
        doc = json.loads(json.dumps(clean))
        key = tamper(doc)
        cache_file.write_text(json.dumps(doc))
        for args in (["cache", "verify", "--datum", "GL2", "--p", "2"],
                     ["pkl", "--datum", "GL2", "--p", "2", "--w", "s0 s1"]):
            r = run_cli(args)
            assert r.returncode == 5, (args, r.stderr)
            assert key in r.stderr
            assert "Traceback" not in r.stderr, r.stderr


def _drop(key):
    def damage(text):
        doc = json.loads(text)
        del doc[key]
        return json.dumps(doc)
    return damage


def _drop_simple(text):
    doc = json.loads(text)
    del doc["datum"]["simple"]
    return json.dumps(doc)


def _char_as_string(text):
    doc = json.loads(text)
    doc["characteristic"] = str(doc["characteristic"])
    return json.dumps(doc)


def _set(key, value):
    def damage(text):
        doc = json.loads(text)
        doc[key] = value
        return json.dumps(doc)
    return damage


def _entry_as_int(text):
    doc = json.loads(text)
    doc["entries"][sorted(doc["entries"])[-1]] = 5
    return json.dumps(doc)


@pytest.mark.parametrize("damage", [
    _drop("datum"), _drop_simple, _drop("source"), _drop("entries"),
    lambda text: text[:500], _char_as_string, _set("reps", []),
    _entry_as_int, _set("datum", "GL2"),
], ids=["no-datum", "no-simple", "no-source", "no-entries", "truncated",
        "char-string", "reps-list", "entry-int", "datum-string"])
def test_cli_damaged_cache_header_exits_5(gl2, damage, run_cli, tmp_path):
    # a damaged header is a damaged cache (exit 5) for verify, gc and
    # inspect alike, and gc leaves the file as it found it
    path = tmp_path / "cache.json"
    _saved_gl2_table(gl2, path)
    damaged = damage(path.read_text())
    for action in ("verify", "gc", "inspect"):
        path.write_text(damaged)
        r = run_cli(["cache", action, "--cache", str(path)])
        assert r.returncode == 5, (action, r.stderr)
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr
        assert path.read_text() == damaged


def test_cli_datum_file(gl2, run_cli, tmp_path):
    import pathlib

    doc = gl2.to_json()
    path = pathlib.Path(tmp_path) / "mydatum.json"
    path.write_text(json.dumps(doc))
    r = run_cli(["check", "--datum-file", str(path), "--p", "3"])
    assert r.returncode == 0


@pytest.mark.parametrize("content", [
    {"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]], "simple": [5]},
    {"rank": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]]},
    [[2], [-2]],
    None,
], ids=["simple-out-of-range", "no-simple", "array", "missing-file"])
def test_cli_bad_datum_file_is_a_config_error(content, run_cli, tmp_path):
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_text(json.dumps(content))
    r = run_cli(["check", "--datum-file", str(path), "--p", "2"])
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error:")
    assert "Traceback" not in r.stderr


def test_failed_write_keeps_old_document(gl2, tmp_path, monkeypatch):
    table = PCanTable(gl2, 2)
    for u in enumerate_elements(gl2, 2):
        table.ensure(u)
    path = tmp_path / "cache.json"
    cachemod.save_table(table, str(path))
    old = path.read_bytes()

    class HalfWritten:
        """A file opened for writing that stores half of what it is given,
        then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            raise OSError("disk full")

    def open_failing(path, mode="r"):
        fh = open(path, mode)
        return HalfWritten(fh) if "w" in mode else fh

    monkeypatch.setattr(cachemod, "open", open_failing, raising=False)
    table.ensure(enumerate_elements(gl2, 3)[-1])
    for write in (lambda: cachemod.save_table(table, str(path)),
                  lambda: cachemod.gc(str(path))):
        with pytest.raises(OSError, match="disk full"):
            write()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
