"""The benchmark harness in ``perfbench/`` wraps package functions by name and
runs the CLI on configs of its own."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from dvrcircuits.cli import config_from_dict

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


def test_every_benchmark_config_parses(monkeypatch):
    # a config the reader rejects would turn the benchmark's runs into failed outputs
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    calls = [call for workload in workloads.WORKLOADS.values() for call in workload.golden_calls()]
    assert calls
    for _, _, config in calls:
        config_from_dict(config)


def _resolves(module: str, name: str | None) -> bool:
    """Whether ``import module`` (name None) or ``from module import name`` works."""
    try:
        imported = importlib.import_module(module)
        if name is not None and not hasattr(imported, name):
            importlib.import_module(f"{module}.{name}")  # a submodule not imported yet
    except ImportError:
        return False
    return True


def test_every_name_perfbench_imports_exists():
    # the harness imports from the package inside functions too, so a removed
    # or renamed name would fail only once the function that imports it runs
    imported = []  # (file, module, name)
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dvrcircuits":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [(path.name, alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "dvrcircuits"]
    assert {file for file, _, _ in imported} >= {"layers.py", "make_golden.py", "worker.py"}
    missing = [entry for entry in imported if not _resolves(*entry[1:])]
    assert missing == []
