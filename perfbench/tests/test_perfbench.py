"""Smoke-size tests of the benchmark itself.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
Workloads run at ``--size smoke`` in their own processes, as in a real run.
"""

import copy
from collections import Counter
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import fpulab.backlund  # noqa: E402
import fpulab.kdv  # noqa: E402
import fpulab.modulation  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import ScopeSummary, Tracer, package_modules  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = package_modules()
REPEATED_COUNTS = ("modulation.newton_iters", "kdv.TauLadder.build.calls",
                   "waves.spline_builds", "integrators.steps")


def run_bench(workload, trace, seed=5, cwd=ROOT, script=BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    """workload -> (untraced result, [two traced results with one seed])."""
    return {w: (result_of(run_bench(w, 0)),
                [result_of(run_bench(w, 1)) for _ in range(2)])
            for w in workloads.WORKLOADS}


def test_spec_lists_every_workload_and_layer_metric():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    want = [(n, u, b) for n, u, b, _ in layers.PER_LAYER] + [layers.OVERHEAD]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == want


def test_run_s_is_the_upper_quartile_of_the_passes():
    assert run.run_time([4.0, 1.0, 3.0, 2.0, 5.0]) == 4.0
    assert run.run_time([1.0, 2.0, 3.0]) == 2.5


def test_every_workload_runs_and_checks_out(results):
    for name, (plain, traced) in results.items():
        for res in [plain, *traced]:
            assert res["correct"], name
            assert res["attempted"] >= 3 and res["failed"] == 0, name


def test_every_metric_is_emitted_with_its_unit(results):
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for plain, traced in results.values():
        assert {k: v["unit"] for k, v in plain["metrics"].items()} == end_to_end
        for res in traced:
            assert {k: v["unit"] for k, v in res["metrics"].items()} == per_layer
        for value in plain["metrics"].values():
            assert value["value"] > 0


def test_count_metrics_repeat_exactly(results):
    for name, (_, (first, second)) in results.items():
        for key in REPEATED_COUNTS:
            assert first["metrics"][key] == second["metrics"][key], (name, key)
    fpu = results["fpu_track"][1][0]["metrics"]
    assert fpu["modulation.newton_iters"]["value"] > 0
    assert fpu["waves.spline_builds"]["value"] > 0
    assert results["kdv_decay"][1][0]["metrics"]["kdv.TauLadder.build.calls"]["value"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_passes_repeat_the_first_pass_counts(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(3, "smoke")
    tracer = Tracer(MODULES)
    tracer.install()
    try:
        with tracer.scope("setup"):
            wl.setup(3, "smoke")
        for _ in range(2):
            with tracer.scope("pass"):
                wl.drive(copy.deepcopy(inputs))
    finally:
        tracer.remove()
    combined = layers.Combined(tracer.summarize(tracer.roots("setup")[0]),
                               [tracer.summarize(r) for r in tracer.roots("pass")])
    assert combined.count_mismatches() == []
    assert sum(combined.passes[0].counts.values()) + len(combined.passes[0].stats) > 0


def test_a_changed_count_is_a_mismatch():
    def summary(calls, steps):
        stats = {"integrators.evolve_nonlinear": {"calls": calls, "self_s": 0.1,
                                                  "incl_s": 0.1, "durations": [0.1]}}
        return ScopeSummary(stats, {}, Counter({"integrators.steps": steps}), 0.1)

    same = layers.Combined(summary(1, 5), [summary(1, 5), summary(1, 5)])
    assert same.count_mismatches() == []
    moved = layers.Combined(summary(1, 5), [summary(1, 5), summary(2, 5), summary(1, 6)])
    assert moved.count_mismatches() == [(1, "calls integrators.evolve_nonlinear"),
                                        (2, "count integrators.steps")]


def _bindings():
    """Every object at a binding site the tracer replaces."""
    out = {}
    for module in MODULES:
        for attr, obj in vars(module).items():
            out[(module.__name__, attr)] = obj
            if isinstance(obj, type):
                for mattr, raw in vars(obj).items():
                    out[(module.__name__, attr, mattr)] = raw
    return out


def test_traced_run_removes_its_wrappers():
    before = _bindings()
    tracer = Tracer(MODULES)
    tracer.install()
    try:
        assert fpulab.modulation.track is not before[("fpulab.modulation", "track")]
        assert fpulab.backlund.TauLadder is fpulab.kdv.TauLadder
        wl = workloads.WORKLOADS["kdv_decay"]
        with tracer.scope("pass"):
            wl.drive(copy.deepcopy(wl.setup(0, "smoke")))
    finally:
        tracer.remove()
    assert tracer.originals_in_place()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    spans = len(tracer.spans)
    assert spans > 1
    wl.drive(copy.deepcopy(wl.setup(0, "smoke")))
    assert len(tracer.spans) == spans


def test_self_time_excludes_children():
    tracer = Tracer(MODULES)
    tracer.install()
    try:
        with tracer.scope("pass"):
            workloads.WORKLOADS["ladder_walk"].drive(
                workloads.ladder_walk_setup(0, "smoke"))
    finally:
        tracer.remove()
    summary = tracer.summarize(tracer.roots("pass")[0])
    name = "backlund.ladder_conjugate"
    assert 0.0 < summary.self_s(name) < summary.incl_s(name)
    layer_total = sum(summary.layer_self_s().values())
    assert layer_total == pytest.approx(summary.wall_s)


def test_ladder_family_puts_every_anchor_on_the_grid():
    for n in (2, 4, 8):
        family = workloads.ladder_family(n)
        ladder = fpulab.backlund.phase_ladder(family)
        anchors = [ladder.anchor(m) for m in range(1, n + 1)]
        assert anchors == pytest.approx(sorted(anchors))
        assert all(abs(a - round(a)) < 1e-9 for a in anchors)


def test_seed_only_changes_the_drawn_inputs():
    a = workloads.toda_split_setup(1, "smoke")["v0"]
    b = workloads.toda_split_setup(1, "smoke")["v0"]
    c = workloads.toda_split_setup(2, "smoke")["v0"]
    assert (a.r == b.r).all() and not (a.r == c.r).all()


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("kdv_decay", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
