"""Every name a module of the package or of the tests imports is used,
every private module-level name of the package is read, no package
module reads a private attribute of another object, and the package has
one log-sum-exp, one sech^2 and one copy each of the Gram-condition,
relative-overlap, divergence, weight-exponent and wave-collision checks,
one threshold alarm (kdv._check_limit, the only raise whose message says
a value "exceeds" its limit), and takes its Fourier transforms from
scipy.fft.  The three linear flows (the lattice's evolve_linearized and
the two KdV flows of backlund) share one RK4 step: its stage weights (a
division by 6) occur once in the package, and no _SpectralFlow stepper
class is left.  mpmath is a test dependency only: no package module
imports it, and the package imports where it cannot be found.

The checks read the source with ast: a name bound by an import statement
must occur as a name somewhere in the same module (`np` in `np.sum`
counts).  A private name a package module defines at module level must
be read (loaded, imported or taken as an attribute) somewhere in the
package or the tests outside its own definition.  A name mentioned only
in a docstring, a comment or a string counts as unused.  `from
__future__` imports are exempt.
"""

import ast
import os
import subprocess
import sys
import textwrap
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


def _is_np_cosh(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "cosh" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np")


def _squares_or_divides_by_cosh(node):
    return isinstance(node, ast.BinOp) and (
        (isinstance(node.op, ast.Pow) and _is_np_cosh(node.left))
        or (isinstance(node.op, ast.Div) and _is_np_cosh(node.right)))


def test_one_sech2():
    # kdv._sech2 is the package's sech^2: cosh(z)^2 overflows once |z|
    # passes about 355
    found = []
    for path in sorted(SOURCES[0].glob("*.py")):
        tree = ast.parse(path.read_text())
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if _squares_or_divides_by_cosh(node)]
    assert found == []


def _calls(node, name):
    """node is a call of a function or method named `name`."""
    return isinstance(node, ast.Call) and name == (
        node.func.attr if isinstance(node.func, ast.Attribute)
        else getattr(node.func, "id", None))


def _is_np_linalg_cond(node):
    return (_calls(node, "cond") and isinstance(node.func, ast.Attribute)
            and ast.unparse(node.func.value) == "np.linalg")


def _is_norm_or_one(node):
    """`np.sqrt(...) or 1.0`: the norm of a relative overlap's field."""
    return (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)
            and _calls(node.values[0], "sqrt"))


GUARDED_PHRASES = ("evolution diverged", "wave collision",
                   "weight exponent must lie")


def test_one_copy_of_each_check():
    # kdv._checked_gram is the one Gram-condition check, backlund._overlaps
    # the one relative overlap, backlund._check_finite the one divergence
    # alarm, backlund._check_weight the one weight-exponent check and
    # modulation's decompose raises its collision alarm from one place
    found = Counter()
    for path in sorted(SOURCES[0].glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            found["np.linalg.cond"] += _is_np_linalg_cond(node)
            found["_overlap"] += _calls(node, "_overlap")
            found["np.sqrt(...) or 1"] += _is_norm_or_one(node)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.update(p for p in GUARDED_PHRASES if p in node.value)
    assert found["np.linalg.cond"] == 1
    assert found["_overlap"] <= 1
    assert found["np.sqrt(...) or 1"] == 1
    assert {p: found[p] for p in GUARDED_PHRASES} == dict.fromkeys(GUARDED_PHRASES, 1)


ALARM_VERBS = ("exceeds", "above", "more than", "not below")


def _alarm_messages(tree):
    """The string pieces of each raise outside kdv._check_limit that name
    a value against a limit with one of ALARM_VERBS."""
    helper = {id(n) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "_check_limit"
              for n in ast.walk(f)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and id(node) not in helper:
            text = "".join(c.value for c in ast.walk(node)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str))
            if any(verb in text for verb in ALARM_VERBS):
                yield text


def test_one_alarm_form():
    # every value-against-limit alarm raises through kdv._check_limit:
    # one message form, and a NaN value fires it
    found, calls = [], 0
    for path in sorted(SOURCES[0].glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(path.name, text) for text in _alarm_messages(tree)]
        calls += sum(_calls(node, "_check_limit") for node in ast.walk(tree))
    assert found == []
    # boundary mass, identity, stall, Gram condition, flat tail, decompose,
    # and backlund's two orthogonality, mismatch, secular and alias alarms
    assert calls == 11


def _is_rk4_weight(node):
    """`dt / 6`: the stage weight of an RK4 combination."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and ast.unparse(node.left) == "dt"
            and isinstance(node.right, ast.Constant) and node.right.value == 6)


def _names_spectral_flow(node):
    return "_SpectralFlow" in (getattr(node, "name", None),
                               getattr(node, "id", None),
                               getattr(node, "attr", None))


def test_one_rk4_step():
    # integrators._rk4_stepper is the one RK4 step of evolve_linearized,
    # linearized_kdv_evolve and ladder_level_evolve
    found = Counter()
    for path in sorted(SOURCES[0].glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            found["dt / 6"] += _is_rk4_weight(node)
            found["_SpectralFlow"] += _names_spectral_flow(node)
    assert found["dt / 6"] == 1
    assert found["_SpectralFlow"] == 0


def _names_numpy_fft(node):
    """np.fft or numpy.fft, or an import of numpy.fft or from it."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "fft" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return (module.startswith("numpy.fft") or (
            module == "numpy" and any(a.name == "fft" for a in node.names)))
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.fft") for a in node.names)
    return False


def test_fft_from_scipy():
    # scipy.fft keeps the plan of each transform length; numpy.fft (a
    # ufunc since numpy 2) rebuilds it on every call, with the same bits
    found = []
    for path in sorted(SOURCES[0].glob("*.py")):
        tree = ast.parse(path.read_text())
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if _names_numpy_fft(node)]
    assert found == []


def _names_mpmath(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "mpmath" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "mpmath"
    return False


def test_package_does_not_import_mpmath():
    # the 300-digit references live in tests/oracles.py
    found = []
    for path in sorted(SOURCES[0].glob("*.py")):
        tree = ast.parse(path.read_text())
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if _names_mpmath(node)]
    assert found == []


BLOCKED_MPMATH = textwrap.dedent("""
    import importlib
    import pkgutil
    import sys

    class BlockMpmath:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "mpmath":
                raise ImportError("mpmath is blocked")
            return None

    assert "mpmath" not in sys.modules
    sys.meta_path.insert(0, BlockMpmath())
    try:
        import mpmath
    except ImportError:
        pass
    else:
        raise SystemExit("the import hook let mpmath through")
    import fpulab
    for info in pkgutil.iter_modules(fpulab.__path__, "fpulab."):
        importlib.import_module(info.name)
    assert "mpmath" not in sys.modules
""")


def test_package_imports_without_mpmath():
    # nothing can be uninstalled here, so a meta-path finder that raises
    # ImportError for mpmath stands in for an environment without it
    src = str(Path(fpulab.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", BLOCKED_MPMATH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
