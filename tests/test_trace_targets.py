"""Every function the benchmark's traced run wraps still exists in loccdist."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


def test_trace_targets_resolve():
    targets = load_targets()
    assert targets
    for target in targets:
        module_name, *path = target.split(".")
        owner = importlib.import_module(f"loccdist.{module_name}")
        assert len(path) in (1, 2), target
        if len(path) == 1:
            assert callable(getattr(owner, path[0], None)), target
        else:
            cls = getattr(owner, path[0], None)
            assert cls is not None and callable(vars(cls).get(path[1])), target
