"""twistvol benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload fig8-sweep|fig8-n20|riley-batch
                         --seed N --seconds S --trace 0|1

Run from the repository root.  The seed picks the workload's jobs; the
programs below receive only the job names.  Set-up time is the median
over several fresh processes that each import twistvol and load those
jobs (loading.py); the workload then runs in one further fresh process
(worker.py).  Times are calibrated to a fixed interpreter speed
(probe.py).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
The exit status is 0 only when every output was correct.
"""

import argparse
import glob
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ('fig8-sweep', 'fig8-n20', 'riley-batch')
SETUP_PROBES = 9
DEADLINE_S = 170.0           # every run ends well inside 180 s

# Riley pool by field degree; the seed picks one job per degree.
RILEY_POOL = {3: ['k7_3'], 4: ['k9_7'], 5: ['k11_3', 'k11_5'],
              6: ['k13_3', 'k13_5'], 7: ['k15_7'], 8: ['k17_5']}


def job_names(workload, seed):
    """Jobs of a workload.  The figure-eight inputs do not depend on the seed."""
    if workload == 'riley-batch':
        rng = random.Random(seed)
        return [rng.choice(RILEY_POOL[d]) for d in sorted(RILEY_POOL)]
    return ['figure-eight']


def child(script, args, timeout):
    """Run a bench script in a fresh process; its parsed last output line."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, script)] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit('bench: %s ran past %.0f s' % (script, timeout))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit('bench: %s exited with status %d'
                         % (script, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, 'src', '**', '*.py'),
                          recursive=True):
        with open(path, encoding='utf-8') as handle:
            total += sum(1 for _ in handle)
    return total


def metric(value, unit):
    return {'value': value, 'unit': unit}


def layer_unit(name):
    if name.endswith(('.calls', '.rows')):
        return 'count'
    return 'bits' if name.endswith('.out_bits') else 's'


def seconds_list(values):
    return ' '.join('%.3f' % v for v in values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', required=True, choices=WORKLOADS)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=int, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in ('src/twistvol/__init__.py', 'tests/golden/figure-eight'):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise SystemExit('bench: %s is missing; run from a full checkout'
                             % needed)
    start = time.monotonic()
    names = job_names(args.workload, args.seed)

    setups = []
    if not args.trace:
        setups = [child('loading.py', names, 60) for _ in range(SETUP_PROBES)]
    worker_args = ['run', '--workload', args.workload, '--jobs', ','.join(names),
                   '--seconds', str(args.seconds)]
    if args.trace:
        worker_args += ['--trace-file', os.path.join(
            BENCH_DIR, 'out', 'trace-%s-seed%d.json' % (args.workload,
                                                        args.seed))]
    result = child('worker.py', worker_args,
                   DEADLINE_S - (time.monotonic() - start))

    failed, attempted = result['failed'], result['attempted']
    problems = result.get('trace_problems', [])
    print('# machine: nproc=%d python=%s mpmath=%s; src/ lines=%d'
          % (os.cpu_count(), platform.python_version(), result['mpmath'],
             src_lines()))
    print('# workload %s seed %d: jobs %s'
          % (args.workload, args.seed, ' '.join(names)))
    print('# %d untraced pass(es): wall %s s; calibrated %s s'
          % (len(result['work_s']), seconds_list(result['work_s']),
             seconds_list(result['calibrated_s'])))
    if setups:
        print('# set-up: wall %s s; calibrated %s s'
              % (seconds_list(s['wall_s'] for s in setups),
                 seconds_list(s['setup_s'] for s in setups)))
    print('# failed_frac %s frac (%d of %d invariant computations)'
          % (failed / attempted, failed, attempted))
    for error in result['errors']:
        print('# error: %s n=%s: %s' % tuple(error))
    for problem in problems:
        print('# trace self-check failed: %s' % problem)

    if args.trace:
        print('# %d traced pass(es): calibrated %s s; spans in bench/out/'
              % (len(result['traced_calibrated_s']),
                 seconds_list(result['traced_calibrated_s'])))
        metrics = {name: metric(value, layer_unit(name))
                   for name, value in result['layers'].items()}
    else:
        metrics = {
            'run_s': metric(statistics.median(result['calibrated_s']), 's'),
            'setup_s': metric(statistics.median(s['setup_s'] for s in setups),
                              's'),
            'peak_rss_mb': metric(result['peak_rss_mb'], 'MB'),
        }
    correct = failed == 0 and not problems
    print(json.dumps({'correct': correct, 'attempted': attempted,
                      'failed': failed, 'metrics': metrics}))
    return 0 if correct else 1


if __name__ == '__main__':
    sys.exit(main())
