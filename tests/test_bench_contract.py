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

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), 'bench')


def test_traced_pass_records_every_core_span(monkeypatch):
    monkeypatch.setattr(sys, 'dont_write_bytecode', True)
    monkeypatch.syspath_prepend(BENCH_DIR)
    import loading
    import spans
    import worker

    jobs = loading.load_jobs(twistvol, ['figure-eight', 'k7_3'])
    tracer = spans.Tracer()
    with tracer.root(0, 'contract'):
        tracer.install(twistvol)
        try:
            outcome = worker.invariant_pass(twistvol, jobs, [2, 3])
        finally:
            tracer.uninstall()
    assert outcome.errors == []
    assert len(outcome.items) == 4
    totals = tracer.totals({0: 1.0})
    for name in worker.CORE_SPANS:
        assert totals[name]['calls'] > 0, name
    # one kept block column per invariant: one phi, one numerator and
    # one denominator each, told apart by the drop_columns identity
    assert totals['invariant.phi']['calls'] == 4
    assert totals['laurent.det_num']['calls'] == 4
    assert totals['laurent.det_den']['calls'] == 4
    assert totals['laurent.det_num']['out_bits'] > 0
