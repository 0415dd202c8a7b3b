"""Every name a module of the package or of the tests imports is used.

The check reads the source with ast: a name bound by an import statement
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
