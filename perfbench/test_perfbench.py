"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the root)."""

import copy
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from checks import Checks, check_ratios, check_w_rows, load_reference  # noqa: E402
from run import ACCURACY_METRICS, end_to_end_metrics, layer_metrics  # noqa: E402
from tracer import Span, Tracer, pool_usage, self_times, union_length  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- correctness checks ------------------------------------------------------

@pytest.mark.parametrize("delta, failures", [(0.0, 0), (1e-12, 0), (1e-6, 1), (-1e-6, 1)])
def test_w_row_perturbation(delta, failures):
    ref = load_reference()["production_sweep"]["rows"]
    rows = copy.deepcopy(ref)
    rows[2]["W"] += delta
    checks = Checks()
    check_w_rows(checks, rows, ref, "test")
    assert checks.failed == failures
    assert checks.attempted == len(ref) + 1


def test_gap_row_and_other_grid_fail():
    ref = load_reference()["dielectric_ladder"]["m=1"]
    rows = copy.deepcopy(ref)
    rows[0]["W"] = None
    rows[1]["n_xi"] += 1
    checks = Checks()
    check_w_rows(checks, rows, ref, "test")
    assert checks.failed == 2


def test_ratios_must_approach_m():
    checks = Checks()
    check_ratios(checks, [0.48, 0.49, 0.495], 0.5, "test")
    assert checks.failed == 0
    check_ratios(checks, [0.48, 0.495, 0.49], 0.5, "test")
    assert checks.failed == 1


# -- span arithmetic ---------------------------------------------------------

def span(name, seq, parent, start, end, pid=1, **attrs):
    return Span(name, pid, seq, (1, parent) if parent else None, start, end, attrs)


def test_union_length():
    assert union_length([]) == 0
    assert union_length([(0, 10), (5, 20), (30, 40)]) == 30
    assert union_length([(0, 10), (10, 20)]) == 20


def test_self_time_with_overlapping_children():
    spans = [
        span("a", 1, None, 0, 100),
        span("b", 2, 1, 10, 40),
        span("c", 3, 1, 30, 60),      # overlaps b, as a parallel worker would
        span("d", 4, 1, 90, 120),     # runs past its parent: clipped at 100
        span("e", 5, 2, 15, 20),      # grandchild: covered through b only
    ]
    selfs = self_times(spans)
    assert selfs[(1, 1)] == 100 - (50 + 10)
    assert selfs[(1, 2)] == 30 - 5
    assert selfs[(1, 3)] == 30
    assert selfs[(1, 5)] == 5


def test_pool_usage_counts_idle_slots():
    sweep = span("asymptotics.sweep_interaction_energy", 1, None, 0, 100, jobs=2)
    work = [Span("eigensolver.lowest_eigenpair", 7, 1, (1, 1), 0, 80, {}),
            Span("eigensolver.lowest_eigenpair", 8, 1, (1, 1), 10, 70, {})]
    util, wait = pool_usage([sweep] + work)
    assert util == pytest.approx(140 / 200)
    assert wait == pytest.approx(60e-9)


# -- metric names --------------------------------------------------------------

def test_declared_metrics_are_well_formed():
    bench = load_benchmark()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    for key in ("end_to_end", "per_layer"):
        for m in bench[key]:
            assert NAME.fullmatch(m["name"]), m["name"]
            assert UNIT.fullmatch(m["unit"]), m
            assert m["better"] in ("higher", "lower")
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in bench["end_to_end"]


def test_every_declared_metric_is_computed():
    bench = load_benchmark()
    e2e = end_to_end_metrics([1.0, 2.0], [0.5, 0.7, 0.6], {"acc_err": 1e-3})
    assert set(e2e) == {m["name"] for m in bench["end_to_end"]}
    spans = [span("cli.main", 1, None, 0, 100),
             span("eigensolver.lowest_eigenpair", 2, 1, 10, 90, dim=10, nnz=30,
                  iterations=5, residual=1e-12)]
    layer = layer_metrics(spans, traced_wall=1e-7, untraced_wall=1e-7)
    assert set(layer) | set(ACCURACY_METRICS) == {m["name"] for m in bench["per_layer"]}


# -- wrapping at import sites ------------------------------------------------------

def test_tracer_wraps_every_import_site(tmp_path):
    from vdwplate import asymptotics, cli, eigensolver, spectra
    original = eigensolver.lowest_eigenpair
    tracer = Tracer(str(tmp_path))
    tracer.install()
    try:
        assert asymptotics.lowest_eigenpair is eigensolver.lowest_eigenpair
        assert cli.lowest_eigenpair is eigensolver.lowest_eigenpair
        assert cli.sweep_interaction_energy is asymptotics.sweep_interaction_energy
        assert eigensolver.lowest_eigenpair is not original
        spectra.hvz_gap(-0.3, 10.0)
    finally:
        tracer.uninstall()
    assert eigensolver.lowest_eigenpair is original
    assert asymptotics.lowest_eigenpair is original
    spans = tracer.collect()
    assert [s.name for s in spans] == ["spectra.essential_spectrum_bottom", "spectra.hvz_gap"]
    assert spans[0].parent == spans[1].key
