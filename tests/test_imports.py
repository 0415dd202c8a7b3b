"""Every name a module of the package or of the tests imports is used,
every private module-level name of the package is read, no package
module reads a private attribute of another object, and the package has
one log-sum-exp.

The checks read the source with ast: a name bound by an import statement
must occur as a name somewhere in the same module (`np` in `np.sum`
counts).  A private name a package module defines at module level must
be read (loaded, imported or taken as an attribute) somewhere in the
package or the tests outside its own definition.  A name mentioned only
in a docstring, a comment or a string counts as unused.  `from
__future__` imports are exempt.
"""

import ast
from collections import Counter
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


def _reads(tree):
    """Names a tree loads, imports or takes as attributes, with repeats."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _private_definitions(tree):
    """(name, defining statement) of each private module-level name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_no_orphaned_private_names():
    trees = {path: ast.parse(path.read_text())
             for folder in SOURCES for path in sorted(folder.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    orphans = []
    for path in sorted(SOURCES[0].glob("*.py")):
        for name, node in _private_definitions(trees[path]):
            if reads[name] == Counter(_reads(node))[name]:
                orphans.append("%s: %s" % (path.name, name))
    assert orphans == []


def _foreign_private_reads(tree):
    """(line, expression) of each read of a private attribute (one
    underscore, not a dunder) of an object other than self or cls."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr.startswith("_") and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))):
            yield node.lineno, ast.unparse(node)


def test_no_private_attribute_reads_across_objects():
    # a module reads another object's state through its public fields:
    # model.dv, not model._dv
    found = []
    for path in sorted(SOURCES[0].glob("*.py")):
        tree = ast.parse(path.read_text())
        found += ["%s:%d %s" % (path.name, line, expr)
                  for line, expr in _foreign_private_reads(tree)]
    assert found == []


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
