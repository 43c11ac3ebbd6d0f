"""Every name that a module of the package imports is used in it, and
every function, class and method it defines is named somewhere else."""

import ast
import glob
import os
import re
from collections import Counter

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "tateform")
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


WORD = re.compile(r"[A-Za-z_]\w*")


def definitions(source):
    """(name, first line, last line) of every module-level function and
    class and every method of such a class that is not a dunder."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        out.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            out.extend((m.name, m.lineno, m.end_lineno) for m in node.body
                       if isinstance(m, ast.FunctionDef)
                       and not (m.name.startswith("__") and m.name.endswith("__")))
    return out


def unnamed_definitions(corpus, defining):
    """Definitions in the ``defining`` files of ``corpus`` (path -> text)
    whose name appears nowhere in the corpus outside their own lines."""
    total = Counter()
    for text in corpus.values():
        total.update(WORD.findall(text))
    out = []
    for path in defining:
        lines = corpus[path].splitlines()
        for name, first, last in definitions(corpus[path]):
            own = WORD.findall("\n".join(lines[first - 1:last]))
            if total[name] == own.count(name):
                out.append(name)
    return sorted(out)


def test_the_check_sees_an_unnamed_definition():
    corpus = {
        "m.py": "def used():\n    return 1\n\n\ndef dead():\n    return dead\n\n\n"
                "class K:\n    def __init__(self):\n        pass\n\n"
                "    def spare(self):\n        return used()\n",
        "t.py": "from m import used\n",
    }
    assert unnamed_definitions(corpus, ["m.py"]) == ["K", "dead", "spare"]


def test_every_definition_is_named_elsewhere():
    # named in the package, the tests, the demos, the benchmark scripts or
    # README; a helper that nothing names any more is dead code
    paths = (glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
             + glob.glob(os.path.join(ROOT, "tests", "**", "*.py"), recursive=True)
             + glob.glob(os.path.join(ROOT, "demos", "*.py"))
             + glob.glob(os.path.join(ROOT, "bench", "*.py"))
             + [os.path.join(ROOT, "README.md")])
    corpus = {}
    for path in paths:
        with open(path) as fh:
            corpus[os.path.realpath(path)] = fh.read()
    assert unnamed_definitions(corpus, [os.path.realpath(p) for p in MODULES]) == []
