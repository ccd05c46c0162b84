"""The span tracer: self-time rule, one span per call, restoring bindings."""

from time import perf_counter

import pytest

import tracer
from oamix import catalog, evaluate, modelmat
from oamix.core import ModelSpec
from oamix.errors import SingularMatrix

SPEC = ModelSpec("scheffe_quadratic", include_pwo=True,
                 interaction_terms=((1, (1, 2)), (1, (1, 3)), (2, (2, 3))),
                 include_block=True)


@pytest.fixture
def traced():
    trace = tracer.Trace()
    installed = tracer.install(trace, tracer.OAMIX_COUNTERS)
    try:
        yield trace
    finally:
        installed.uninstall()


def _spans(trace):
    return [(trace.names[trace.name[i]],
             trace.names[trace.name[trace.parent[i]]] if trace.parent[i] >= 0
             else None) for i in range(len(trace))]


def test_self_times_sum_to_the_traced_op(traced):
    design = catalog.czitrom_d_oofa()
    traced.op_id = 0
    t0 = perf_counter()
    evaluate.criteria_report(modelmat.build_model_matrix(design, SPEC))
    op_time = perf_counter() - t0
    totals = tracer.LayerTotals()
    totals.add_trace(traced, ops=[0])
    roots = sum(traced.end[i] - traced.start[i] for i in range(len(traced))
                if traced.parent[i] < 0 and traced.op[i] == 0)
    assert totals.total_self_s() == pytest.approx(roots, rel=1e-9)
    # only the wrappers' own bookkeeping lies outside the root spans
    assert 0.9 * op_time <= totals.total_self_s() <= op_time
    assert totals.counts["modelmat.rows"] == design.n


def test_cross_module_call_recorded_once_under_its_own_layer(traced):
    X = modelmat.build_model_matrix(catalog.czitrom_d_oofa(), SPEC)
    evaluate.criteria_report(X)
    spans = _spans(traced)
    assert spans.count(("linalg.lu_det_inv", "evaluate.named_inverse")) == 1
    assert [s for s in spans if s[0] == "linalg.lu_det_inv"] == [
        ("linalg.lu_det_inv", "evaluate.named_inverse")]
    assert spans.count(("linalg.lu_factor", "linalg.lu_det_inv")) == 1
    assert ("core.pair_indices", "modelmat.build_model_matrix") in spans
    totals = tracer.LayerTotals()
    totals.add_trace(traced)
    assert totals.calls["linalg"] == 3  # xtx, lu_det_inv, lu_factor


def test_raised_counts_exceptions_leaving_a_layer(traced):
    X = modelmat.build_model_matrix(catalog.czitrom_d_optimal(), SPEC)
    with pytest.raises(SingularMatrix):
        evaluate.criteria_report(X)  # ordering columns are all zero
    totals = tracer.LayerTotals()
    totals.add_trace(traced)
    # lu_factor -> lu_det_inv stays inside linalg; lu_det_inv -> evaluate
    # crosses; named_inverse -> criteria_report stays inside evaluate;
    # criteria_report -> the caller crosses
    assert totals.raised["linalg"] == 1
    assert totals.raised["evaluate"] == 1
    assert totals.raised["modelmat"] == 0


def test_install_twice_is_refused_and_uninstall_restores_everything():
    original_report = evaluate.criteria_report
    original_catalog = dict(catalog.CATALOG)
    trace = tracer.Trace()
    installed = tracer.install(trace)
    try:
        assert evaluate.criteria_report is not original_report
        with pytest.raises(RuntimeError):
            tracer.install(tracer.Trace())
        catalog.CATALOG["czitrom-d"]()  # module-level dicts are rebound too
        assert _spans(trace) == [("catalog.czitrom_d_optimal", None)]
    finally:
        installed.uninstall()
    assert evaluate.criteria_report is original_report
    assert catalog.CATALOG == original_catalog
    import oamix
    assert oamix.criteria_report is original_report


def test_dump_and_load_round_trip(traced, tmp_path):
    traced.op_id = 7
    modelmat.build_model_matrix(catalog.czitrom_d_oofa(), SPEC)
    traced.dump(str(tmp_path / "spans"))
    loaded = tracer.Trace.load(str(tmp_path / "spans"))
    assert _spans(loaded) == _spans(traced)
    assert list(loaded.start) == list(traced.start)
    assert set(loaded.op) == {7}
    assert loaded.counts == traced.counts
