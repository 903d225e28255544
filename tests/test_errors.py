"""The error vocabulary stays as small as its callers need.

A TwoDevpError subclass earns its place only when some caller in the
package catches it by name; a failure nothing tells apart is raised as
TwoDevpError with its own message.
"""

import ast
from pathlib import Path

import twodevp

SRC = Path(twodevp.__file__).resolve().parent


def _caught_names(handler_type):
    if isinstance(handler_type, ast.Tuple):
        return {name for elt in handler_type.elts for name in _caught_names(elt)}
    if isinstance(handler_type, ast.Name):
        return {handler_type.id}
    if isinstance(handler_type, ast.Attribute):
        return {handler_type.attr}
    return set()


def test_every_error_subclass_is_caught_by_name():
    errors = ast.parse((SRC / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    assert "TwoDevpError" in defined
    defined.discard("TwoDevpError")
    caught = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler):
                caught |= _caught_names(node.type)
    assert sorted(defined - caught) == []
