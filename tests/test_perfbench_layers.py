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
        from affkl.linalg import kernel

        assert kernel([{0: 1, 1: 1}], 2, PrimeField(2)) == [[1, 1]]
        assert rec.entry_calls["linalg.kernel_mod_p"] == 1
    finally:
        rec.uninstall()
    for (layer, entry), orig in before.items():
        assert _resolve(modules[layer], entry) is orig, entry
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "affkl" or name.startswith("affkl.")):
            assert not any(_is_wrapper(v) for v in vars(mod).values()), name
