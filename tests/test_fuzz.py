"""No traceback on any job text: a fixed-seed fuzz of the command line.

Mutants of the bundled figure-eight job and of the K(7/3) Riley job drop,
insert or replace characters, tokens and lines, or put a number from a
small pool of awkward ones (zero, huge, exponent form, zero denominator)
in place of a token.  `check` and `invariant --n 3` run on each, in
process, and every outcome must be one of three: success, a
stage-tagged `error [...]` on stderr with exit status 1, or `check`'s
PASS / FAIL lines with at least one FAIL and exit status 1.  Any
exception that escapes main fails the test, naming the mutant.
"""

import random
import re

from twistvol import bundled_job_path
from twistvol.cli import main

from conftest import K7_3_TEXT

FIG8_TEXT = bundled_job_path('figure-eight').read_text(encoding='utf-8')

MUTANTS = 200
SEED = 26

TOKEN = re.compile(r'-?\w+(?:\.\w+)?|\S')
NUMBERS = ['0', '1', '-1', '2', '1/0', '1/3', '0.5', '1e4000', '1e-4000',
           '9' * 5000, '1e999999999', '99999999999999999999', '1_0', '-0']
CHARACTERS = '[],:=-/.0123456789abAB eE\n#'
TAGGED = re.compile(r'error \[[a-z -]+\]: .+\n\Z', re.S)
CHECK_LINE = re.compile(r'(PASS|FAIL)  [^\n]+: ')


def mutate(text, rng):
    """text with one to three random edits."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(6)
        if kind < 3:
            # a character dropped, inserted or replaced
            i = rng.randrange(len(text) + 1)
            new = rng.choice(CHARACTERS) if kind else ''
            text = text[:i] + new + text[i + (kind != 1):]
        elif kind < 5:
            # a token replaced by a pool number or by another token
            spans = [m.span() for m in TOKEN.finditer(text)]
            i, j = rng.choice(spans)
            if kind == 3:
                new = rng.choice(NUMBERS)
            else:
                new = text[slice(*rng.choice(spans))]
            text = text[:i] + new + text[j:]
        else:
            # a line dropped or repeated
            lines = text.split('\n')
            k = rng.randrange(len(lines))
            lines[k:k + 1] = [] if rng.random() < 0.5 else [lines[k]] * 2
            text = '\n'.join(lines)
    return text


def outcome(capsys, argv):
    """The outcome class of one command, or an AssertionError."""
    code = main(argv)
    out, err = capsys.readouterr()
    if code == 0 and not err:
        return 'success'
    assert code == 1, (code, out, err)
    if TAGGED.match(err):
        assert out == ''
        return 'tagged error'
    lines = out.splitlines()
    assert argv[0] == 'check' and not err, (out, err)
    assert lines and all(CHECK_LINE.match(line) for line in lines), out
    assert any(line.startswith('FAIL') for line in lines), out
    return 'check FAIL'


def test_every_mutant_fails_cleanly_or_runs(capsys, tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / 'mutant.job'
    seen = set()
    for k in range(MUTANTS):
        text = mutate((FIG8_TEXT, K7_3_TEXT)[k % 2], rng)
        path.write_text(text, encoding='utf-8')
        for argv in (['check', str(path)],
                     ['invariant', str(path), '--n', '3']):
            try:
                seen.add(outcome(capsys, argv))
            except BaseException as exc:
                raise AssertionError('mutant %d, %s:\n%s' % (
                    k, ' '.join(argv[:1] + argv[2:]), text)) from exc
    # the mutants reach every outcome class
    assert seen == {'success', 'tagged error', 'check FAIL'}
