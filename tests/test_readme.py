"""README's python examples name only what the package has, and its
Quick tour computes what its comments state."""

import ast
import importlib
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks():
    with open(README) as fh:
        text = fh.read()
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_every_imported_name_exists():
    blocks = python_blocks()
    assert len(blocks) >= 3
    imports = 0
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and \
                    node.module.split(".")[0] == "tateform":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imports += 1
                    assert hasattr(module, alias.name), \
                        "%s has no %s" % (node.module, alias.name)
    assert imports


def test_quick_tour_computes_what_its_comments_state():
    tour = python_blocks()[0]
    namespace = {}
    checked = {}
    for line in tour.splitlines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        try:
            stated = ast.literal_eval(comment)
            expression = isinstance(ast.parse(code).body[0], ast.Expr)
        except (SyntaxError, ValueError, IndexError):
            stated, expression = None, False
        if expression:
            checked[code] = stated
            assert eval(code, namespace) == stated, code
        else:
            exec(line, namespace)
    assert checked == {"T.invariants(0)": (4,), "T.invariants(1)": ()}
