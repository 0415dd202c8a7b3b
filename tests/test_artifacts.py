"""Tests for fpulab.artifacts.

Series files are checked by exact round trips (every float64 bit pattern
that %.17g can name, and the sign of zero); JSON by a strict parser;
SVG by the stdlib XML parser.  The last test keeps file writing in this
module: it reads the package's source with ast.
"""

import ast
import json
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpulab
from fpulab.artifacts import read_series, svg_series_plot, write_json, write_series
from fpulab.diagnostics import VirialReport, decay_fit

float64s = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True,
                     width=64)


@st.composite
def column_dicts(draw):
    size = draw(st.integers(0, 12))
    names = draw(st.lists(st.sampled_from(["t", "value", "v_w"]), min_size=1,
                          max_size=3, unique=True))
    return {name: np.array(draw(st.lists(float64s, min_size=size,
                                         max_size=size)), dtype=float)
            for name in names}


@settings(max_examples=200, deadline=None)
@given(columns=column_dicts())
def test_series_round_trip_is_exact(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("series") / "s.csv"
    write_series(path, columns)
    back = read_series(path)
    assert list(back) == list(columns)
    for name, want in columns.items():
        got = back[name]
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got[~np.isnan(got)]),
                              np.signbit(want[~np.isnan(want)]))


def test_two_dimensional_column_is_numbered(tmp_path):
    path = tmp_path / "track.csv"
    c = np.array([[1.1, 1.2], [1.3, 1.4], [1.5, 1.6]])
    write_series(path, {"t": [0.0, 0.5, 1.0], "c": c, "v_w": [3.0, 2.0, 1.0]})
    text = path.read_text()
    assert text.splitlines()[0] == "t,c1,c2,v_w"
    assert text.endswith("1,1.5,1.6000000000000001,1\n")
    back = read_series(path)
    assert np.array_equal(back["c1"], c[:, 0])
    assert np.array_equal(back["c2"], c[:, 1])


def test_one_row_file(tmp_path):
    path = tmp_path / "one.csv"
    write_series(path, {"x": [2.5], "value": [-0.0]})
    assert path.read_text() == "x,value\n2.5,-0\n"
    back = read_series(path)
    assert back["x"].shape == (1,) and back["x"][0] == 2.5
    assert np.signbit(back["value"][0])


def test_unequal_lengths_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_series(tmp_path / "a.csv", {"t": [0.0, 1.0], "y": [1.0]})
    with pytest.raises(ValueError):
        write_series(tmp_path / "b.csv", {"t": [0.0, 1.0], "c": np.ones((3, 2))})


def _reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


def test_json_is_strict(tmp_path):
    # two samples: the integrated sech term is zero, so the fitted
    # constant is infinite
    report = VirialReport(np.array([0.0, 1.0]), np.array([1.0, 0.5]),
                          np.array([2.0, 2.0]), np.zeros(2), 0.1, eps=0.2)
    assert report.as_dict()["fitted_constant"] == np.inf
    nested = {"report": report.as_dict(),
              "deep": [{"x": np.float64(-np.inf)}, (np.nan, 1.5)], "n": 3}
    path = tmp_path / "r.json"
    write_json(path, nested)
    text = path.read_text()
    assert text.endswith("}\n") and text.startswith("{\n \"report\"")
    back = json.loads(text, parse_constant=_reject_constant)
    assert back["report"]["fitted_constant"] is None
    assert back["report"]["a"] == 0.1
    assert back["deep"] == [{"x": None}, [None, 1.5]]
    assert back["n"] == 3


def test_svg_plot(tmp_path):
    t = np.linspace(0.0, 20.0, 81)
    fit = decay_fit(t, 3.0 * np.exp(-0.37 * t))
    path = tmp_path / "decay.svg"
    title = "rate < 0.3 & M3"
    svg_series_plot(path, t, fit.value_at(t), fit=fit, title=title,
                    log_scale=True)
    doc = minidom.parse(str(path))
    assert len(doc.getElementsByTagName("polyline")) == 2
    texts = [node.firstChild.data for node in doc.getElementsByTagName("text")]
    assert title in texts
    with pytest.raises(ValueError, match="increase"):
        svg_series_plot(tmp_path / "flat.svg", [1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="two or more samples"):
        svg_series_plot(tmp_path / "one.svg", [1.0], [1.0])
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive values"):
            svg_series_plot(tmp_path / "log.svg", [1.0, 2.0], [1.0, bad],
                            log_scale=True)


def _calls_and_imports(tree):
    """(what, enclosing function or None) for every open() call, as
    "open", and for every import, as the top-level module name."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                target = child.func
                if (isinstance(target, ast.Name) and target.id == "open") or (
                        isinstance(target, ast.Attribute) and target.attr == "open"):
                    found.append(("open", inner))
            if isinstance(child, ast.Import):
                found.extend((a.name.split(".")[0], inner) for a in child.names)
            if isinstance(child, ast.ImportFrom) and child.module:
                found.append((child.module.split(".")[0], inner))
            visit(child, inner)

    visit(tree, None)
    return found


def test_files_are_written_through_artifacts_only():
    stray = []
    for path in sorted(Path(fpulab.__file__).parent.glob("*.py")):
        if path.name == "artifacts.py":
            continue
        for what, func in _calls_and_imports(ast.parse(path.read_text())):
            if what == "open":
                stray.append("%s: open() in %s" % (path.name, func))
            if what in ("csv", "json"):
                stray.append("%s imports %s" % (path.name, what))
    assert stray == []
