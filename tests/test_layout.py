"""Where names live: the module attributes the traced benchmark wraps, the
direction of the import between `report` and `cli`, and the one seeded
draw."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import cellbalance
from cellbalance import cli, engine, teletraffic


def test_every_traced_name_resolves():
    """A name the traced benchmark wraps that is gone reads 0 in its
    per-layer metric, and the traced run only warns."""
    path = Path(__file__).parents[1] / "perfbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    modules = {"cli": cli, "engine": engine, "teletraffic": teletraffic, "json": json}
    missing = [f"{module}.{attr}" for module, attr, _ in traced_cli.PATCHES
               if not hasattr(modules[module], attr)]
    assert missing == []


def test_compare_looks_up_cli_comparison_document(monkeypatch, tmp_path):
    """The traced benchmark times report building by wrapping this cli
    global, so compare must call it through the name, once."""
    calls = []
    original = cli.comparison_document

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "comparison_document", spy)
    argv = ["compare", "--calls", "20", "--output", str(tmp_path / "r.json")]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(calls) == 1


def test_report_imports_nothing_from_cli():
    """The documents stand without the command line that writes them."""
    script = "import sys, cellbalance.report; print('cellbalance.cli' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cellbalance.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_one_seeded_draw():
    """Every draw goes through traffic._uniform, from PCG64's raw words: no
    module calls default_rng or builds a Generator, whose methods numpy
    may change between releases (NEP 19)."""
    banned = {"default_rng", "Generator"}
    found = []
    for path in sorted(Path(cellbalance.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # a name, an attribute, or what an import or def names
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in banned:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []
