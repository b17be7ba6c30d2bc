"""The README's library quick start runs and prints what its comment claims,
every package name the README cites exists, and the CLI parses every
command line the README shows."""

import importlib
import re
import shlex
from pathlib import Path

import dvrcircuits
from dvrcircuits.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_reaches_the_claimed_size(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)
    assert "# 29 ..." in blocks[0]
    assert namespace["m"].R == 29
    assert capsys.readouterr().out.startswith("29 ")


def test_every_name_the_readme_cites_exists():
    text = README.read_text()
    modules = sorted(p.stem for p in Path(dvrcircuits.__file__).parent.glob("*.py") if p.stem != "__init__")
    cited = sorted(set(re.findall(rf"`({'|'.join(modules)})\.(\w+)`", text)))
    assert ("spectra", "size_solver") in cited
    missing = [f"{m}.{name}" for m, name in cited if not hasattr(importlib.import_module(f"dvrcircuits.{m}"), name)]
    assert missing == []
    # the package exports every entry point the README lists
    entry_points = re.findall(r"`(\w+)`", re.search(r"Other entry points:(.*?)\n\n", text, re.DOTALL).group(1))
    assert "lowest_states" in entry_points
    assert [name for name in entry_points if not hasattr(dvrcircuits, name)] == []


def test_every_readme_command_line_parses():
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", README.read_text(), re.DOTALL).group(1)
    lines = block.splitlines()
    assert lines and all(line.startswith("dvrcircuits ") for line in lines)
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])  # argparse exits on a stale flag or choice
        assert (args.config is None) != (args.preset is None), line
