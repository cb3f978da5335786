"""What a fresh process loads, and the record classes it builds.

`import twistvol`, `load_job` and every command run with the standard
library modules they use and no others: the record classes are plain
`__slots__` classes, not dataclasses (which pull in inspect, ast, dis
and tokenize), and argparse is imported only when the command line is
parsed.  The footprint is checked in a fresh interpreter with
PYTHONDONTWRITEBYTECODE=1, as the benchmark's set-up probes start one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from twistvol import (JobFile, TwistConfig, VolumeReport, VolumeRow,
                      bundled_job_path, load_job)

ROOT = Path(__file__).resolve().parents[1]
FIG8_JOB = str(bundled_job_path('figure-eight'))
K7_3_JOB = str(ROOT / 'bench' / 'jobs' / 'k7_3.job')

# modules no library call, job load or command may load
UNUSED = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')

FOOTPRINT = '''
import contextlib, io, json, sys
import twistvol
from twistvol import cli
cli.load_job(sys.argv[1])
cli.load_job(sys.argv[2])
loaded = sorted(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(['invariant', sys.argv[1], '--n', '2'])
print(json.dumps({'loaded': loaded, 'after_main': sorted(sys.modules),
                  'code': code}))
'''


def fresh_python(source, *argv):
    """Run source in a new interpreter that finds the package in src/
    and writes no bytecode; its stdout, read as JSON."""
    path = os.environ.get('PYTHONPATH')
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE='1',
               PYTHONPATH=str(ROOT / 'src') + (os.pathsep + path if path
                                               else ''))
    proc = subprocess.run([sys.executable, '-c', source, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_start_up_loads_no_unused_stdlib_module():
    out = fresh_python(FOOTPRINT, FIG8_JOB, K7_3_JOB)
    assert out['code'] == 0
    for name in UNUSED + ('argparse',):
        assert name not in out['loaded'], name
    for name in UNUSED:
        assert name not in out['after_main'], name
    assert 'argparse' in out['after_main']


class TestRecords:
    """The record classes keep their constructors and defaults; the
    n >= 1 check is test_invariant.py's test_invalid_n_rejected."""

    def test_twist_config_defaults(self, fig8, fig8_rep):
        cfg = TwistConfig(fig8, fig8_rep)
        assert cfg.presentation is fig8 and cfg.rep is fig8_rep
        assert cfg.n == 2 and cfg.column == 'auto'
        cfg = TwistConfig(fig8, fig8_rep, 5, 'b')
        assert cfg.n == 5 and cfg.column == 'b'

    def test_twist_config_is_read_only(self, fig8, fig8_rep):
        cfg = TwistConfig(fig8, fig8_rep, 3)
        with pytest.raises(AttributeError):
            cfg.n = 4
        assert cfg.n == 3

    def test_volume_row_gap_defaults_to_none(self):
        row = VolumeRow(4, mpmath.mpf(2), mpmath.mpf('0.5'))
        assert (row.n, row.ratio_abs, row.estimate) == (4, 2, 0.5)
        assert row.gap is None
        report = VolumeReport([row], 128, '2.5')
        assert report.rows == [row]
        assert row.gap == 2

    def test_job_file_reference_defaults_to_none(self):
        job = load_job(FIG8_JOB)
        copy = JobFile(job.presentation, job.number_field,
                       job.representation)
        assert copy.presentation is job.presentation
        assert copy.number_field is job.number_field
        assert copy.representation is job.representation
        assert copy.reference is None
