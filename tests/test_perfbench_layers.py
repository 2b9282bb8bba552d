"""The benchmark's per-layer tracer still finds every name it wraps.

perfbench/layers.py wraps affkl functions and methods by name.  A rename or
deletion in affkl breaks traced benchmark runs; this test makes it fail the
suite instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(module, entry):
    if "." in entry:
        cls_name, meth = entry.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, entry)


def _is_wrapper(obj):
    return getattr(obj, "__qualname__", "") == "Recorder._wrap.<locals>.wrapper"


def test_recorder_wraps_and_restores_every_entry_point():
    layers = _load_layers()
    # `import affkl` alone does not load every layer module (affkl.cache)
    modules = {layer: importlib.import_module(f"affkl.{layer}")
               for layer in layers.LAYERS}
    before = {(layer, entry): _resolve(modules[layer], entry)
              for layer, entries in layers.ENTRY_POINTS.items()
              for entry in entries}
    rec = layers.Recorder()
    rec.install()
    try:
        for (layer, entry), orig in before.items():
            now = _resolve(modules[layer], entry)
            assert _is_wrapper(now) and now.__wrapped__ is orig, entry
        # the sparse API reaches the wrapped per-field backend
        from affkl.fields import PrimeField
        from affkl.linalg import kernel, rank, solve

        # the system x0 + x1 (= 2) as COO triplets; column 2 holds the rhs
        assert kernel([0, 0], [0, 1], [1, 1], 2, PrimeField(2)) == [[1, 1]]
        assert rec.entry_calls["linalg.kernel_mod_p"] == 1
        assert rank([0, 0], [0, 1], [1, 1], 2, PrimeField(3)) == 1
        assert rec.entry_calls["linalg.kernel_mod_p"] == 2
        assert solve([0, 0, 0], [0, 1, 2], [1, 1, 2], 2, 1,
                     PrimeField(3)) == [[2, 0]]
        assert rec.entry_calls["linalg.kernel_mod_p"] == 3
    finally:
        rec.uninstall()
    for (layer, entry), orig in before.items():
        assert _resolve(modules[layer], entry) is orig, entry
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "affkl" or name.startswith("affkl.")):
            assert not any(_is_wrapper(v) for v in vars(mod).values()), name


def test_kl_route_tables_make_no_bimodule_or_linalg_calls(tmp_path):
    # the tables workload fails a traced run if these layers are reached:
    # neither a kl-route table nor one loaded from a saved cache may reach them
    from affkl import build_root_datum, cache, tilt
    from affkl.soergel import PCanTable
    from affkl.weyl import enumerate_elements, simple_reflections

    gl2 = build_root_datum("GL2")
    saved = PCanTable(gl2, 2)
    for w in enumerate_elements(gl2, 3):
        saved.ensure(w)
    path = str(tmp_path / "gl2-p2.json")
    cache.save_table(saved, path)
    layers = _load_layers()
    rec = layers.Recorder()
    rec.install()
    try:
        table = PCanTable(build_root_datum("A2-sc"), 0, source="kl")
        refls = simple_reflections(table.datum, conj_search=False)
        mt = tilt.mult_table([refls[0]], [refls[1], refls[2]], 4, table)
        loaded = cache.load_table(path, datum=gl2)
        s0 = simple_reflections(gl2, conj_search=False)[0]
        mt_loaded = tilt.mult_table([], [s0], 3, loaded)
    finally:
        rec.uninstall()
    assert mt.entries and mt_loaded.entries
    assert rec.entry_calls["cache.load_table"] == 1
    assert rec.calls["tilt"] and rec.calls["weyl"]
    for layer in ("bimodule", "homs", "linalg", "fdalg"):
        assert rec.calls[layer] == 0, layer


def test_split_reaches_the_layers_the_bimodule_workloads_expect():
    # worker.EXPECTED needs homs and linalg calls on the bimodule workloads,
    # and the linalg counters must see the odd-p and Q systems too
    from affkl import build_root_datum
    from affkl.bimodule import b_object, tensor
    from affkl.realization import build_realization
    from affkl.soergel import end0_split
    from affkl.weyl import simple_reflections

    layers = _load_layers()
    for name, p, kernel_entry in (("GL2", 2, "linalg.kernel_mod_p"),
                                  ("GL2", 3, "linalg.kernel_mod_p"),
                                  ("A2-sc", 0, "linalg.kernel_rational")):
        datum = build_root_datum(name)
        real = build_realization(datum, p)
        s = simple_reflections(datum, conj_search=False)[0]
        big = tensor(b_object(real, s), b_object(real, s))
        rec = layers.Recorder()
        rec.install()
        try:
            pieces = end0_split(big)
        finally:
            rec.uninstall()
        assert len(pieces) == 2, name
        for entry in ("homs.hom_space", kernel_entry):
            assert rec.entry_calls[entry], (name, p, entry)
        # each summand's coordinates come from back substitution, not a solve
        assert rec.entry_calls["soergel.materialize_summand"] == 2, (name, p)
        assert rec.entry_calls["homs.solve_in_basis"] == 0, (name, p)
        assert rec.counts["linalg.rows"] > 0, (name, p)
