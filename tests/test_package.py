import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qwalk

MODULES = sorted(info.name for info in pkgutil.iter_modules(qwalk.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks `from qwalk.<module> import *`
    module = importlib.import_module(f"qwalk.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, missing


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name listed in ``__all__`` counts as read; ``from __future__``
    imports bind nothing.
    """
    tree = ast.parse(source)
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_unused_imports_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom typing import Iterable, Sequence\n"
        "from m import exported\n__all__ = ['exported']\n"
        "def f(x: Sequence) -> None:\n    return os.path.join(x)\n"
    )
    assert _unused_imports(source) == ["j", "Iterable"]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_only_what_it_uses(name):
    path = Path(qwalk.__file__).parent / f"{name}.py"
    assert _unused_imports(path.read_text()) == []


def test_importing_the_package_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(Path(qwalk.__file__).parents[1]))
    code = "import sys, qwalk; print(sorted(m for m in sys.modules if m.startswith('qwalk.')))"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _qwalk_bindings(class_attrs) -> dict:
    """Every function bound in a loaded qwalk module, and the traced class attributes."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "qwalk" or modname.startswith("qwalk."):
            out.update(((modname, attr), value) for attr, value in vars(mod).items()
                       if inspect.isfunction(value))
    for short, cls_name, attr in class_attrs:
        cls = getattr(importlib.import_module(f"qwalk.{short}"), cls_name)
        out[short, cls_name, attr] = cls.__dict__[attr]
    return out


def test_tracer_wraps_qwalk_and_restores_every_function(monkeypatch):
    # perfbench/tracer.py wraps qwalk's functions and class attributes by name
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    for short in tracer.MODULES:
        importlib.import_module(f"qwalk.{short}")
    before = _qwalk_bindings(tracer.CLASS_ATTRS)
    traced = tracer.Tracer()
    traced.install()
    try:
        during = _qwalk_bindings(tracer.CLASS_ATTRS)
    finally:
        traced.uninstall()
    after = _qwalk_bindings(tracer.CLASS_ATTRS)
    wrapped = {key for key in before if during[key] is not before[key]}
    assert {("qwalk.graphs", "build"), ("qwalk.cli", "main")} <= wrapped
    assert {("ctqw", "Spectrum", "propagate"), ("arcs", "ArcSpace", "from_graph")} <= wrapped
    assert [key for key in before if after[key] is not before[key]] == []


# Suffixes of the per-layer metrics that aggregate one traced function's spans
SPAN_STATS = ("calls", "self_s", "max_s", "unique_ratio")
# Per-layer metrics of BENCHMARK.json whose function is gone from qwalk
DEAD_METRICS = {
    "arcs.shift_matrix.calls",
    "arcs.shift_matrix.self_s",
    "coins.assemble_coin.calls",
    "coins.assemble_coin.self_s",
    "coins.assemble_coin.max_s",
    "ctqw.golden_section_max.calls",
    "ctqw.golden_section_max.self_s",
    "ctqw.golden_section_max.max_s",
}


def test_benchmark_metric_names_resolve_to_traced_code(monkeypatch):
    # a fold that deletes or renames a traced function would otherwise
    # leave its benchmark metric reading nothing
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    unresolved = []
    for name in (metric["name"] for metric in bench["per_layer"]):
        parts = name.split(".")
        if len(parts) < 3 or parts[0] not in tracer.MODULES or parts[-1] not in SPAN_STATS:
            continue
        short, *path, _ = parts
        module = importlib.import_module(f"qwalk.{short}")
        if len(path) == 1:
            fn = getattr(module, path[0], None)
            live = (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not path[0].startswith("_") and (short != "cli" or path[0] == "main"))
        else:
            live = (short, *path) in tracer.CLASS_ATTRS
        if not live:
            unresolved.append(name)
    assert sorted(unresolved) == sorted(DEAD_METRICS)


def test_readme_sink_fields_are_the_search_record_fields():
    # a verdict field added to dtqw.ScanResult reaches every sink line; README must list it too
    from qwalk.explorer import SearchRecord

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = readme.split("Each record is one line:", 1)[1].split("}`", 1)[0]
    assert re.findall(r'"(\w+)"', listed) == [f.name for f in dataclasses.fields(SearchRecord)]


@pytest.mark.parametrize("attr, owners", [
    # port order is the arc space's rule; a module that read neighbour order
    # would hold a second copy of it
    ("neighbors", {"arcs", "graphs"}),
    # the key layout is canonical_key's; graph_from_key is its one decoder
    ("frombuffer", {"graphs"}),
])
def test_only_its_owners_read_a_layout(attr, owners):
    readers = [
        f"{name}.py:{node.lineno}"
        for name in MODULES if name not in owners
        for node in ast.walk(ast.parse((Path(qwalk.__file__).parent / f"{name}.py").read_text()))
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]
    assert readers == []
