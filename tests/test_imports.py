"""Every name that a module of the package imports is used in it."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "tateform")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def unused_imports(source):
    """Names bound by an import statement and never read as a name;
    ``from __future__`` imports are compiler directives, not names."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import gcd, lcm\n" \
             "np.zeros(gcd(1, 2))\n"
    assert unused_imports(source) == ["lcm", "os"]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_imported_name_is_used(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []
