"""Import twistvol from the checkout and load jobs; times both when run.

    python3 bench/loading.py JOB...

prints one JSON line: setup_s, the calibrated time (see probe.py) of
importing twistvol and loading, with validation, every named job, and
wall_s, the raw time.  Only os, sys and time are imported before the
clock starts, so the import is timed as a user's first command pays it.
"""

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), 'src')
FIG8 = 'figure-eight'
PROBE_STEPS = 20


def import_twistvol():
    """twistvol from the checkout's src/ directory and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, 'twistvol', '__init__.py')):
        raise SystemExit('bench: no twistvol sources under %s' % SRC)
    sys.path.insert(0, SRC)
    import twistvol
    if os.path.dirname(os.path.dirname(os.path.abspath(twistvol.__file__))) != SRC:
        raise SystemExit('bench: twistvol imported from outside %s' % SRC)
    return twistvol


def job_path(tv, name):
    """The bundled figure-eight job, or a job of the Riley pool."""
    if name == FIG8:
        return str(tv.bundled_job_path(FIG8))
    return os.path.join(BENCH_DIR, 'jobs', name + '.job')


def load_jobs(tv, names):
    return {name: tv.cli.load_job(job_path(tv, name)) for name in names}


def main():
    start = time.perf_counter()
    tv = import_twistvol()
    load_jobs(tv, sys.argv[1:])
    wall = time.perf_counter() - start
    import json
    import probe
    factor = probe.speed([probe.step() for _ in range(PROBE_STEPS)])
    print(json.dumps({'setup_s': wall * factor, 'wall_s': wall}))


if __name__ == '__main__':
    main()
