"""Every name a module of the package or of the tests imports is used,
and the package has one log-sum-exp.

The checks read the source with ast: a name bound by an import statement
must occur as a name somewhere in the same module (`np` in `np.sum`
counts).  A name mentioned only in a docstring or comment counts as
unused.  `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import fpulab

SOURCES = (Path(fpulab.__file__).parent, Path(__file__).parent)


def _unused_imports(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    unused = []
    for folder in SOURCES:
        for path in sorted(folder.glob("*.py")):
            for name in _unused_imports(ast.parse(path.read_text())):
                unused.append("%s/%s: %s" % (folder.name, path.name, name))
    assert unused == []


def _names_logsumexp(node):
    return ((isinstance(node, ast.alias) and node.name.endswith("logsumexp"))
            or (isinstance(node, ast.Attribute) and node.attr == "logsumexp")
            or (isinstance(node, ast.Name) and node.id == "logsumexp"))


def test_one_log_sum_exp():
    # kdv.log_sum_exp is the package's log-sum-exp; scipy.special's stays out
    found = []
    for path in sorted(SOURCES[0].glob("*.py")):
        tree = ast.parse(path.read_text())
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if _names_logsumexp(node)]
    assert found == []
