"""The names the benchmark reaches into twodevp for must keep resolving.

perfbench/tracer.py wraps layer functions by (module, attribute) and
perfbench/workloads.py calls the package by name; a renamed or deleted
layer would otherwise break only a traced benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import twodevp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_layers_resolve():
    tracer = _load_tracer()
    missing = [(m, a) for m, a in tracer.LAYERS if not callable(getattr(importlib.import_module(m), a, None))]
    assert missing == []
    for module, cls_name, attr, _ in tracer.METHODS:
        assert attr in vars(getattr(importlib.import_module(module), cls_name))


def test_workload_names_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "twodevp":
            mod = importlib.import_module(node.module)
            names += [(node.module, alias.name, mod) for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "td":
            names.append(("twodevp", node.attr, twodevp))
    assert names
    missing = [(m, a) for m, a, mod in names
               if not hasattr(mod, a) and importlib.util.find_spec("%s.%s" % (m, a)) is None]
    assert missing == []
