"""The benchmark harness in ``perfbench/`` wraps package functions by name."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_target_exists(monkeypatch):
    # a traced run (--trace 1) calls getattr on each (owner, attribute) of
    # layers.targets(), so a removed or renamed function would break it
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers imports its sibling spans
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = layers.targets()
    assert targets
    missing = [name for name, owner, attr, _ in targets if not hasattr(owner, attr)]
    assert missing == []
