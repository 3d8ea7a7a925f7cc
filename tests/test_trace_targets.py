"""The benchmark's tracer looks program functions up by name; a rename in
``twodist`` must fail here, not only in a ``--trace 1`` run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = load_targets()
    assert targets
    for mod_name, path in targets:
        obj = importlib.import_module(f"twodist.{mod_name}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"twodist.{mod_name}.{path} is gone"
            obj = getattr(obj, attr)
        assert callable(obj), f"twodist.{mod_name}.{path} is not callable"
