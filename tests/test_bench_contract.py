"""What the traced benchmark needs of the package, checked in-process.

bench/spans.py wraps twistvol's call sites from outside: the names that
`invariant` and `volume` import, `PolyMatrix.drop_columns` (which marks
the numerator determinant) and `LaurentPolynomial.coeffs` (read for the
coefficient bits).  A change that breaks one of these would otherwise
surface only in a traced benchmark run.  The bench modules are imported
as they are and not written to.
"""

import os
import sys

import twistvol

from conftest import fig8_wirtinger

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), 'bench')


def bench_modules(monkeypatch):
    monkeypatch.setattr(sys, 'dont_write_bytecode', True)
    monkeypatch.syspath_prepend(BENCH_DIR)
    import loading
    import spans
    import worker
    return loading, spans, worker


def traced_pass(spans, worker, jobs, ns):
    """worker.invariant_pass under the bench tracer: outcome and totals."""
    tracer = spans.Tracer()
    with tracer.root(0, 'contract'):
        tracer.install(twistvol)
        try:
            outcome = worker.invariant_pass(twistvol, jobs, ns)
        finally:
            tracer.uninstall()
    return outcome, tracer.totals({0: 1.0})


def test_traced_pass_records_every_core_span(monkeypatch):
    loading, spans, worker = bench_modules(monkeypatch)
    jobs = loading.load_jobs(twistvol, ['figure-eight', 'k7_3'])
    outcome, totals = traced_pass(spans, worker, jobs, [2, 3])
    assert outcome.errors == []
    assert len(outcome.items) == 4
    for name in worker.CORE_SPANS:
        assert totals[name]['calls'] > 0, name
    # one kept block column per invariant: one phi, one numerator and
    # one denominator each, told apart by the drop_columns identity
    assert totals['invariant.phi']['calls'] == 4
    assert totals['laurent.det_num']['calls'] == 4
    assert totals['laurent.det_den']['calls'] == 4
    assert totals['laurent.det_num']['out_bits'] > 0


def test_traced_pass_on_three_relators(monkeypatch):
    """The numerator is still told apart at g = 4, three block rows."""
    _, spans, worker = bench_modules(monkeypatch)
    fig8 = twistvol.load_job(twistvol.bundled_job_path('figure-eight'))
    pres, rep = fig8_wirtinger(fig8.representation)
    jobs = {'wirtinger': twistvol.JobFile(pres, rep.field, rep)}
    outcome, totals = traced_pass(spans, worker, jobs, [2, 3])
    assert outcome.errors == []
    assert len(outcome.items) == 2
    # 3 relators x 3 kept block columns, per invariant
    assert totals['invariant.phi']['calls'] == 18
    assert totals['laurent.det_num']['calls'] == 2
    assert totals['laurent.det_den']['calls'] == 2
    # n = 3: 3 relators x 3 rows
    assert totals['laurent.det_num']['rows'] == 9
