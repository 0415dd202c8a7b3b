"""Run artifacts: the lab's one text-file convention, strict JSON records
and standalone SVG plots.

A series file is CSV with a header of column names and one row per
sample, every value written as %.17g (which reads back as the same
float64, including nan, +-inf, subnormals and -0) and lines ended by
"\\n".  JSON records are strict: a non-finite float is written as null.
Plots are plain SVG, with no plotting dependency.

This module imports numpy and the stdlib only, so every other module can
write through it.
"""

import json
import math

import numpy as np


def write_series(path, columns):
    """Write a dict of named equal-length columns, in insertion order.

    A 2-D column of shape (samples, k) is written as the k columns
    name1..namek.  Raises ValueError when the lengths differ.
    """
    names, arrays = [], []
    for name, values in columns.items():
        values = np.asarray(values)
        if values.ndim == 2:
            names += ["%s%d" % (name, j + 1) for j in range(values.shape[1])]
            arrays += list(values.T)
        else:
            names.append(name)
            arrays.append(values)
    if len({a.size for a in arrays}) > 1:
        raise ValueError("all columns must have the same length")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*arrays):
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def read_series(path):
    """Read a write_series file back as a dict of name -> float64 array."""
    with open(path) as fh:
        names = fh.readline().rstrip("\n").split(",")
        rows = [line.split(",") for line in fh]
    data = np.array(rows, dtype=float).reshape(-1, len(names))
    return {name: data[:, j] for j, name in enumerate(names)}


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_json(path, mapping):
    """Write a mapping as strict JSON (non-finite floats become null at any
    depth) with indent=1 and a trailing newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(_finite_or_null(mapping), fh, indent=1, allow_nan=False)
        fh.write("\n")


def svg_series_plot(path, times, values, fit=None, title="", log_scale=False):
    """Standalone SVG of a series against increasing times, optionally
    overlaying a DecayFit as a dashed line.  Values must be positive for
    log_scale."""
    # imported here: xml.sax.saxutils pulls in urllib.request and
    # http.client, about 1.7 MB of resident memory for every run that
    # imports the package and never plots
    from xml.sax.saxutils import escape

    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size != values.size or times.size < 2:
        raise ValueError("need two or more samples to plot")
    if not np.all(np.diff(times) > 0.0):
        raise ValueError("times must increase")
    if log_scale and not np.all(values > 0.0):
        raise ValueError("log-scale plots need positive values")
    width, height, margin = 640, 400, 50
    y = np.log10(values) if log_scale else values
    y_min, y_max = float(np.min(y)), float(np.max(y))
    if y_max == y_min:
        y_max = y_min + 1.0
    t_min, t_max = float(times[0]), float(times[-1])

    def sx(t):
        return margin + (t - t_min) / (t_max - t_min) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_min) / (y_max - y_min) * (
            height - 2 * margin)

    def polyline(ts, vs, style):
        pts = " ".join("%.2f,%.2f" % (sx(t), sy(v)) for t, v in zip(ts, vs))
        return '<polyline fill="none" %s points="%s"/>' % (style, pts)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (margin, height - margin, width - margin, height - margin),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (margin, margin, margin, height - margin),
        polyline(times, y, 'stroke="steelblue" stroke-width="1.5"'),
    ]
    if fit is not None:
        fv = fit.value_at(times)
        fy = np.log10(fv) if log_scale else fv
        parts.append(polyline(
            times, fy,
            'stroke="crimson" stroke-width="1.2" stroke-dasharray="6 4"'))
        parts.append(
            '<text x="%d" y="%d" font-size="12">rate %.4g, R^2 %.4f</text>'
            % (margin + 6, margin + 14, fit.rate, fit.r_squared))
    if title:
        parts.append('<text x="%d" y="%d" font-size="13">%s</text>'
                     % (margin, margin - 10, escape(title)))
    parts.append(
        '<text x="%d" y="%d" font-size="11">t in [%g, %g]%s</text>'
        % (margin, height - margin + 28, t_min, t_max,
           ", log10 scale" if log_scale else ""))
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
