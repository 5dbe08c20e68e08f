import importlib
import inspect
import json
import os
import pkgutil
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
