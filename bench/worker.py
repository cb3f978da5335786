"""One benchmark workload, run in a fresh single-threaded process.

    python3 bench/worker.py run --workload W --jobs NAME,... --seconds S
                                [--trace-file PATH]
    python3 bench/worker.py record

`run` loads the jobs, then repeats whole passes of the workload while
another pass still fits in S seconds (at least one), checks every exact
output and prints one JSON line.  With --trace-file, untraced and traced
passes alternate (at least one of each) and the spans are written to
PATH.  `record` recomputes every output any workload can produce and
writes bench/expected.json; run it only on a commit whose outputs are
known to be right.
"""

import argparse
import glob
import hashlib
import json
import os
import resource
import statistics
import sys
import time

from loading import BENCH_DIR, FIG8, import_twistvol, load_jobs
from probe import SpeedProbe
from spans import SPAN_NAMES, Tracer

ROOT = os.path.dirname(BENCH_DIR)
EXPECTED = os.path.join(BENCH_DIR, 'expected.json')
GOLDEN_DIR = os.path.join(ROOT, 'tests', 'golden', 'figure-eight')

SWEEP_NS = range(2, 16)      # compute --n 4..15 also needs the bases n = 2, 3
RILEY_NS = range(2, 6)
PRECISION = 256

# v_n to five decimals for the figure-eight, as tests/test_acceptance.py has it.
KNOWN_TABLE = {
    6: '1.35850', 7: '1.58331', 8: '1.66441', 9: '1.76436', 10: '1.79618',
    11: '1.85105', 12: '1.86678', 13: '1.90158', 14: '1.91009', 15: '1.93361',
}

# Spans each workload must record at least once per traced pass.
CORE_SPANS = ('group.fox_derivative', 'rep.evaluate', 'rep.symmetric_power',
              'invariant.phi', 'invariant.wada_matrix',
              'invariant.twisted_alexander', 'invariant.value_at_one',
              'laurent.det_num', 'laurent.det_den', 'laurent.reduce',
              'laurent.normalize_unit')
VOLUME_SPANS = ('field.embed', 'volume.volume_estimate', 'volume.format')


def printed(ta, value):
    """What `twistvol invariant` prints, plus the value at t = 1."""
    return ('n: %d\ndeleted column: %s\ninvariant: %s\nunit: %s\n'
            'value at t=1: %s\n' % (ta.n, ta.column, ta.value, ta.unit_str(),
                                     value))


def digest(ta, value):
    return hashlib.sha256(printed(ta, value).encode()).hexdigest()


class Outcome:
    """The exact outputs of one pass, or the error that stopped it."""

    def __init__(self):
        self.items = []          # (job name, n, TwistedAlexander, value)
        self.errors = []         # (job name, n, message)
        self.report = None
        self.table = None


def invariant_pass(tv, jobs, ns):
    """twisted_alexander + value_at_one for each job and n, one by one."""
    out = Outcome()
    for name, job in jobs.items():
        for n in ns:
            try:
                cfg = tv.invariant.TwistConfig(job.presentation,
                                               job.representation, n)
                ta = tv.invariant.twisted_alexander(cfg)
                out.items.append((name, n, ta, tv.invariant.value_at_one(ta)))
            except Exception as exc:          # counted as a failed output
                out.errors.append((name, n, '%s: %s' % (type(exc).__name__,
                                                        exc)))
    return out


def sweep_pass(tv, jobs):
    """What `twistvol compute <figure-eight> --n 4..15` does after loading."""
    job = jobs[FIG8]
    out = Outcome()
    produced = []
    inner = tv.volume.twisted_alexander

    def keep(cfg):
        ta = inner(cfg)
        produced.append(ta)
        return ta

    tv.volume.twisted_alexander = keep
    try:
        values = tv.volume.invariant_values(job.presentation,
                                            job.representation, SWEEP_NS)
        out.report = tv.volume.report_from_values(values, 4, 15, PRECISION,
                                                  job.reference)
        out.table = out.report.format_table()
        out.items = [(FIG8, ta.n, ta, values[ta.n]) for ta in produced]
    except Exception as exc:                  # the whole command fails
        out.errors = [(FIG8, n, '%s: %s' % (type(exc).__name__, exc))
                      for n in SWEEP_NS]
    finally:
        tv.volume.twisted_alexander = inner
    return out


WORKLOADS = {
    'fig8-sweep': sweep_pass,
    'fig8-n20': lambda tv, jobs: invariant_pass(tv, jobs, [20]),
    'riley-batch': lambda tv, jobs: invariant_pass(tv, jobs, RILEY_NS),
}


def expected_ns(workload, names):
    if workload == 'fig8-sweep':
        return [(FIG8, n) for n in SWEEP_NS]
    if workload == 'fig8-n20':
        return [(FIG8, 20)]
    return [(name, n) for name in names for n in RILEY_NS]


def check(workload, names, outcome, expected):
    """Failed (job, n) keys of one pass: raised, missing or wrong output."""
    want = expected_ns(workload, names)
    failed = {(name, n) for name, n, _ in outcome.errors}
    got = {(name, n) for name, n, _, _ in outcome.items}
    failed |= set(want) - got
    for name, n, ta, value in outcome.items:
        if digest(ta, value) != expected['digests'].get('%s/%d' % (name, n)):
            failed.add((name, n))
        if name == FIG8 and n <= 5 and workload == 'fig8-sweep':
            with open(os.path.join(GOLDEN_DIR, 'n%d.txt' % n), 'rb') as fh:
                golden = fh.read()
            if golden != ('%s\n%s\n' % (ta.value.num, ta.value.den)).encode():
                failed.add((name, n))
    if outcome.report is not None:
        import mpmath
        lines = outcome.table.splitlines()
        if lines[:1] != expected['table'][:1]:
            failed |= set(want)
        for n, line in enumerate(expected['table'][1:], start=4):
            if lines[n - 3:n - 2] != [line]:
                failed.add((FIG8, n))
        for row in outcome.report.rows:
            known = KNOWN_TABLE.get(row.n)
            if known is not None and not (abs(row.estimate - mpmath.mpf(known))
                                          < mpmath.mpf('5e-6')):
                failed.add((FIG8, row.n))
    return failed & set(want)


def run(args):
    tv = import_twistvol()
    names = args.jobs.split(',')
    tracer = None
    if args.trace_file:
        tracer = Tracer()
        tracer.install(tv)
        with tracer.root('setup', 'bench.setup'), SpeedProbe() as load_probe:
            jobs = load_jobs(tv, names)
        tracer.uninstall()
    else:
        jobs = load_jobs(tv, names)
    with open(EXPECTED, encoding='utf-8') as handle:
        expected = json.load(handle)
    workload = WORKLOADS[args.workload]

    plain, traced = [], []            # SpeedProbe of each pass
    attempted = failures = traced_invariants = 0
    errors = []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(plain) > len(traced):
            tracer.install(tv)
            with tracer.root(len(traced), 'bench.pass'), SpeedProbe() as probe:
                outcome = workload(tv, jobs)
            tracer.uninstall()
            traced.append(probe)
            traced_invariants += len(outcome.items)
        else:
            with SpeedProbe() as probe:
                outcome = workload(tv, jobs)
            plain.append(probe)
        attempted += len(expected_ns(args.workload, names))
        failures += len(check(args.workload, names, outcome, expected))
        errors.extend(outcome.errors)
        spent = time.perf_counter() - start
        typical = statistics.median(p.work_s for p in plain + traced)
        if (tracer is None or traced) and spent + typical > args.seconds:
            break

    result = {'work_s': [p.work_s for p in plain],
              'calibrated_s': [p.calibrated_s for p in plain],
              'attempted': attempted, 'failed': failures,
              'errors': [list(e) for e in errors[:5]],
              'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024.0,
              'mpmath': sys.modules['mpmath'].__version__}
    if tracer is not None:
        result.update(traced_summary(tracer, args, load_probe, traced, plain,
                                     traced_invariants))
    print(json.dumps(result))


def traced_summary(tracer, args, load_probe, traced, plain,
                   traced_invariants):
    """Per-layer figures per traced pass, and the trace self-check.

    Span times are calibrated with the speed measured during their pass.
    """
    layers = {}
    per_pass = tracer.totals({i: p.calibrated_s / p.work_s
                              for i, p in enumerate(traced)})
    setup = tracer.totals({'setup': load_probe.calibrated_s
                                    / load_probe.work_s})
    for name in SPAN_NAMES:
        entry = setup[name] if name == 'cli.load_job' else per_pass[name]
        scale = 1 if name == 'cli.load_job' else len(traced)
        layers[name + '.s'] = entry['s'] / scale
        layers[name + '.self_s'] = entry['self_s'] / scale
        layers[name + '.calls'] = entry['calls'] / scale
    layers['laurent.det_num.rows'] = per_pass['laurent.det_num'].get('rows', 0)
    layers['laurent.det_num.out_bits'] = per_pass['laurent.det_num'].get(
        'out_bits', 0)
    layers['trace_overhead_s'] = (
        statistics.median(p.calibrated_s for p in traced)
        - statistics.median(p.calibrated_s for p in plain))

    problems = []
    wanted = CORE_SPANS + (VOLUME_SPANS if args.workload == 'fig8-sweep' else ())
    for name in wanted:
        if per_pass[name]['calls'] == 0:
            problems.append('span %s recorded no calls' % name)
    if setup['cli.load_job']['calls'] == 0:
        problems.append('span cli.load_job recorded no calls')
    if per_pass['laurent.det_num']['calls'] != traced_invariants:
        problems.append('laurent.det_num.calls = %d, invariants computed = %d'
                        % (per_pass['laurent.det_num']['calls'],
                           traced_invariants))
    os.makedirs(os.path.dirname(os.path.abspath(args.trace_file)),
                exist_ok=True)
    tracer.write(args.trace_file)
    return {'traced_calibrated_s': [p.calibrated_s for p in traced],
            'layers': layers,
            'trace_problems': problems}


def record(_args):
    """Write the outputs of this commit as the benchmark's expected values."""
    tv = import_twistvol()
    pool = sorted(os.path.basename(path)[:-len('.job')]
                  for path in glob.glob(os.path.join(BENCH_DIR, 'jobs', '*.job')))
    jobs = load_jobs(tv, [FIG8] + pool)
    outcomes = [sweep_pass(tv, {FIG8: jobs[FIG8]}),
                invariant_pass(tv, {FIG8: jobs[FIG8]}, [20]),
                invariant_pass(tv, {name: jobs[name] for name in pool},
                               RILEY_NS)]
    errors = [e for outcome in outcomes for e in outcome.errors]
    if errors:
        raise SystemExit('record: %r' % (errors,))
    items = [item for outcome in outcomes for item in outcome.items]
    data = {'digests': {'%s/%d' % (name, n): digest(ta, value)
                        for name, n, ta, value in items},
            'table': outcomes[0].table.splitlines()}
    with open(EXPECTED, 'w', encoding='utf-8') as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write('\n')
    print('wrote %d digests to %s' % (len(data['digests']), EXPECTED))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('mode', choices=('run', 'record'))
    parser.add_argument('--workload', choices=sorted(WORKLOADS))
    parser.add_argument('--jobs', default=FIG8)
    parser.add_argument('--seconds', type=float, default=10.0)
    parser.add_argument('--trace-file')
    args = parser.parse_args()
    if args.mode == 'run' and args.workload is None:
        parser.error('--workload is required')
    {'run': run, 'record': record}[args.mode](args)


if __name__ == '__main__':
    main()
