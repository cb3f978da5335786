"""Command-line front end: job files, compute / invariant / check commands.

A job file is a single line-oriented text file ('#' starts a comment):

    gens: a b
    rel: aBAba = baBAb
    alpha: a=1 b=1                  # optional, default 1 per generator
    field: 1 1 1                    # minimal polynomial, constant first
    embed: -0.5 0.8660254038        # approximate root picking the embedding
    rep a: [[[1,0],[1,0]],[[0,0],[1,0]]]
    rep b: [[[1,0],[0,0]],[[0,-1],[1,0]]]
    reference: 2.02988              # optional comparison volume

Matrix entries are coefficient vectors over the field generator, e.g.
[0,-1] is -u in Q[u]/(u^2+u+1).  Without a field: line the job runs
over the rationals, and an embed: line is an error.  Only rel: lines
may repeat.
"""

import argparse
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

import mpmath

from . import group
from .field import EmbeddingError, NumberField
from .invariant import (TwistConfig, NoAdmissibleColumnError,
                        SimpleZeroViolationError, twisted_alexander)
from .laurent import order_at_one
from .group import fox_derivative, GroupRingElement
from .rep import Matrix, Representation
from .volume import (fit_limit, invariant_values, needed_dimensions,
                     report_from_values)


class JobError(Exception):
    """A stage-tagged failure surfaced on the command line."""

    def __init__(self, stage, message):
        super().__init__(message)
        self.stage = stage


@dataclass
class JobFile:
    presentation: object
    number_field: object
    representation: Optional[object]
    reference: Optional[str] = None


def bundled_job_path(name='figure-eight'):
    """Filesystem path of a job file shipped with the package."""
    return resources.files(__package__).joinpath('data').joinpath(name + '.job')


def _parse_nested(text):
    """Parse nested bracket lists of rationals, e.g. [[[1,0],[1,0]],...]."""
    tokens = re.findall(r'\[|\]|,|[^\[\],\s]+', text)
    pos = 0

    def parse(depth):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError('unexpected end of matrix literal')
        tok = tokens[pos]
        if tok == '[':
            if depth == 3:
                raise ValueError('matrix literal nested more than 3 deep')
            pos += 1
            items = []
            while pos < len(tokens) and tokens[pos] != ']':
                items.append(parse(depth + 1))
                if pos < len(tokens) and tokens[pos] == ',':
                    pos += 1
            if pos >= len(tokens):
                raise ValueError('unbalanced brackets in matrix literal')
            pos += 1
            return items
        pos += 1
        try:
            return Fraction(tok)
        except ZeroDivisionError:
            raise ValueError('zero denominator in %r' % (tok,)) from None

    value = parse(0)
    if pos != len(tokens):
        raise ValueError('trailing junk in matrix literal')
    return value


def _check_reference(text, where):
    """Reject a reference volume that is not a finite decimal number."""
    try:
        finite = mpmath.isfinite(mpmath.mpf(text))
    except (ValueError, ZeroDivisionError):
        finite = False
    if not finite:
        raise JobError('parse', '%s %r is not a decimal number'
                       % (where, text))


def _parse_int(text, where):
    """text as an int; a parse error naming where if it is not one."""
    try:
        return int(text)
    except ValueError:
        raise JobError('parse', '%s %r is not an integer'
                       % (where, text)) from None


def parse_job(text):
    """Parse and validate job text into a JobFile (without relation check).

    One pass over group.directives: the field, embed, rep and reference
    lines are read here and every other line goes to the presentation.
    """
    field_line = embed_line = reference = None
    rep_lines = {}

    def presentation_items():
        nonlocal field_line, embed_line, reference
        for item in group.directives(text):
            lineno, head, body, _ = item
            parts = head.split(' ')
            if head == 'field':
                field_line = (lineno, body.split())
            elif head == 'embed':
                embed_line = (lineno, body.split())
            elif parts[0] == 'rep':
                if len(parts) != 2:
                    raise JobError('parse', 'line %d: rep line needs a '
                                   'generator, e.g. "rep a: ..."' % lineno)
                rep_lines[parts[1]] = (lineno, body)
            elif head == 'reference':
                reference = body
                _check_reference(reference, 'line %d: reference' % lineno)
            else:
                yield item

    try:
        presentation = group.build_presentation(presentation_items())
    except group.ParseError as exc:
        raise JobError('parse', str(exc)) from exc

    if field_line is None:
        if embed_line is not None:
            raise JobError('parse', 'line %d: embed needs a field: line'
                           % embed_line[0])
        number_field = NumberField.rationals()
    else:
        lineno, words = field_line
        hint = ('0', '0')
        if embed_line is not None:
            if len(embed_line[1]) != 2:
                raise JobError('parse', 'line %d: embed needs two decimal '
                               'components' % embed_line[0])
            hint = tuple(embed_line[1])
        elif len(words) > 2:
            raise JobError('parse', 'field of degree >= 2 needs an '
                           'embed: line selecting a root')
        coeffs = [_parse_int(word, 'line %d: field coefficient' % lineno)
                  for word in words]
        try:
            number_field = NumberField(coeffs, hint)
        except ValueError as exc:
            raise JobError('field validation', str(exc)) from exc

    representation = None
    if rep_lines:
        images = {}
        for name, (lineno, literal) in rep_lines.items():
            try:
                rows = _parse_nested(literal)
            except ValueError as exc:
                raise JobError('parse', 'line %d: %s' % (lineno, exc)) from exc
            if (not isinstance(rows, list) or len(rows) != 2
                    or any(not isinstance(r, list) or len(r) != 2 for r in rows)):
                raise JobError('parse', 'line %d: rep matrix must be 2x2'
                               % lineno)
            try:
                images[name] = Matrix(number_field, rows)
            except ValueError as exc:
                raise JobError('field validation',
                               'line %d: %s' % (lineno, exc)) from exc
        try:
            representation = Representation(presentation, images,
                                            require_sl2=False)
        except (ValueError, ZeroDivisionError) as exc:
            raise JobError('representation validation', str(exc)) from exc

    return JobFile(presentation, number_field, representation, reference)


def load_job(path, validate=True):
    """Read a job file; with validate, enforce det = 1 and the relations.

    The file is UTF-8, with or without a byte-order mark.
    """
    try:
        with open(path, encoding='utf-8-sig') as handle:
            text = handle.read()
    except OSError as exc:
        raise JobError('parse', str(exc)) from exc
    except UnicodeDecodeError:
        raise JobError('parse', '%s: not a UTF-8 text file' % path) from None
    job = parse_job(text)
    if validate and job.representation is not None:
        for stage, ok, detail in _rep_checks(job.representation,
                                             job.presentation):
            if not ok:
                raise JobError(stage, detail)
    return job


def _rep_checks(rep, pres):
    """[(stage, ok, detail)] of the det = 1 check and the relation check."""
    bad = rep.sl2_failures()
    failures = rep.check_relations(pres)
    if failures:
        k, diff = failures[0]
        relations = ('relation %d fails under the representation; '
                     'difference %r' % (k + 1, diff))
    else:
        relations = '%d relation(s) hold exactly' % len(pres.relations)
    return [('determinant check', not bad,
             'det != 1 for %s' % ', '.join(bad) if bad else 'all det = 1'),
            ('relation check', not failures, relations)]


def _require_rep(job, trivial):
    if trivial:
        return Representation.trivial(job.presentation)
    if job.representation is None:
        raise JobError('representation validation',
                       'job file declares no representation '
                       '(use --trivial-rep for the classical invariant)')
    return job.representation


def _check_column(job, column):
    if column != 'auto' and column not in job.presentation.generator_names:
        raise JobError('parse', '--column %r is not a generator of the '
                       'presentation' % column)


def _parse_range(spec):
    m = re.match(r'^(\d+)(?:\.\.(\d+))?$', spec)
    if m is None:
        raise JobError('parse', 'bad --n range %r (use e.g. 4..15)' % spec)
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if hi < lo:
        raise JobError('parse', 'empty --n range %r' % spec)
    return lo, hi


def cmd_compute(args):
    job = load_job(args.job)
    rep = _require_rep(job, False)
    _check_column(job, args.column)
    n_min, n_max = _parse_range(args.n)
    if n_min < 2:
        raise JobError('parse', 'compute needs n >= 2')
    if args.extrapolate and n_max - max(4, n_min) < 1:
        raise JobError('parse', '--extrapolate needs at least two volume '
                       'rows (n >= 4), e.g. --n 4..15; got %r' % args.n)
    precision = _parse_int(args.precision, '--precision')
    if precision < 64:
        raise JobError('parse', '--precision must be at least 64 bits')
    if args.reference is not None:
        _check_reference(args.reference, '--reference')
    reference = args.reference if args.reference is not None else job.reference
    values = invariant_values(job.presentation, rep,
                              needed_dimensions(n_min, n_max), args.column)

    out = []
    exact = [n for n in range(n_min, min(3, n_max) + 1)]
    prefix = '# ' if args.format == 'csv' else ''
    for n in exact:
        out.append('%sinvariant value at t=1 for n=%d: %s' % (prefix, n, values[n]))
    if n_max >= 4:
        report = report_from_values(values, max(4, n_min), n_max,
                                    precision, reference)
        text = (report.format_csv() if args.format == 'csv'
                else report.format_table())
        out.append(text.rstrip('\n'))
        if args.extrapolate:
            limit = fit_limit(report)
            out.append('%sEXPERIMENTAL extrapolated limit (v_n = V - c/n^2 '
                       'fit): %s' % (prefix, mpmath.nstr(limit, 6)))
    print('\n'.join(out))
    return 0


def cmd_invariant(args):
    job = load_job(args.job)
    rep = _require_rep(job, args.trivial_rep)
    _check_column(job, args.column)
    n = None if args.n is None else _parse_int(args.n, '--n')
    if args.trivial_rep and n not in (None, 1):
        raise JobError('parse', '--trivial-rep computes the n = 1 invariant; '
                       'it conflicts with --n %d' % n)
    n = 1 if args.trivial_rep else (2 if n is None else n)
    if n < 1:
        raise JobError('parse', '--n must be at least 1')
    ta = twisted_alexander(TwistConfig(job.presentation, rep, n, args.column))
    print('n: %d' % ta.n)
    print('deleted column: %s' % ta.column)
    print('invariant: %s' % ta.value)
    print('unit: %s' % ta.unit_str())
    return 0


def cmd_check(args):
    job = load_job(args.job, validate=False)
    rep = _require_rep(job, args.trivial_rep)
    pres = job.presentation
    results = _rep_checks(rep, pres)

    def run(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:              # a crashed check is a failure
            ok, detail = False, '%s: %s' % (type(exc).__name__, exc)
        results.append((name, ok, detail))

    def fox_check():
        for r in pres.relators():
            total = GroupRingElement()
            for j in range(pres.num_generators):
                xj = GroupRingElement(pres.generator_word(j))
                total = total + fox_derivative(r, j) * (xj - 1)
            if total != GroupRingElement(r) - 1:
                return False, 'fundamental identity fails on a relator'
        return True, 'fundamental identity holds on all relators'

    def column_check(n):
        def check():
            tas = []
            for name in pres.generator_names:
                try:
                    tas.append(twisted_alexander(
                        TwistConfig(pres, rep, n, name)))
                except NoAdmissibleColumnError:
                    continue
            if not tas:
                return False, 'no admissible column'
            first = tas[0]
            if all(first.equal_up_to_unit(other) for other in tas[1:]):
                return True, '%d admissible column(s) agree up to unit' % len(tas)
            return False, 'columns disagree'
        return check

    def parity_check(n):
        def check():
            ta = twisted_alexander(TwistConfig(pres, rep, n))
            if ta.value.is_zero():
                return True, 'vacuous (invariant is zero)'
            order, _ = order_at_one(ta.value.num)
            want = 0 if n % 2 == 0 else 1
            if order == want:
                return True, 'order at t=1 is %d' % order
            return False, 'order at t=1 is %d, expected %d' % (order, want)
        return check

    run('fox fundamental identity', fox_check)
    run('column independence (n=2)', column_check(2))
    run('column independence (n=3)', column_check(3))
    run('parity of zero at t=1 (n=2)', parity_check(2))
    run('parity of zero at t=1 (n=3)', parity_check(3))

    failed = False
    for name, ok, detail in results:
        print('%s  %s: %s' % ('PASS' if ok else 'FAIL', name, detail))
        failed = failed or not ok
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog='twistvol',
        description='Twisted Alexander invariants of knot groups and the '
                    'hyperbolic volume estimates they carry.')
    sub = parser.add_subparsers(dest='command', required=True)

    def common(p):
        p.add_argument('job', help='path to a job file')
        p.add_argument('--column', default='auto', metavar='auto|<letter>',
                       help='generator block column to delete (default auto)')

    p = sub.add_parser('compute', help='volume-estimate table over a range of n')
    common(p)
    p.add_argument('--n', default='4..15', metavar='<min>..<max>',
                   help='dimension range (default 4..15)')
    p.add_argument('--precision', default='256', metavar='<bits>',
                   help='embedding precision in bits (default 256)')
    p.add_argument('--format', choices=('table', 'csv'), default='table')
    p.add_argument('--reference', default=None, metavar='<decimal>',
                   help='reference volume used for the gap column')
    p.add_argument('--extrapolate', action='store_true',
                   help='append an EXPERIMENTAL fitted limit')

    p = sub.add_parser('invariant', help='print one normalized invariant')
    common(p)
    p.add_argument('--n', default=None,
                   help='dimension (default 2; --trivial-rep takes only 1)')
    p.add_argument('--trivial-rep', action='store_true',
                   help='use the trivial representation at n=1 '
                        '(classical Alexander invariant)')

    p = sub.add_parser('check', help='run consistency checks on a job')
    p.add_argument('job', help='path to a job file')
    p.add_argument('--trivial-rep', action='store_true',
                   help='check the trivial representation instead')
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {'compute': cmd_compute, 'invariant': cmd_invariant,
                'check': cmd_check}
    try:
        return handlers[args.command](args)
    except JobError as exc:
        print('error [%s]: %s' % (exc.stage, exc), file=sys.stderr)
        return 1
    except EmbeddingError as exc:
        # the root is selected at the first embedding, after load
        print('error [field validation]: %s' % exc, file=sys.stderr)
        return 1
    except NoAdmissibleColumnError as exc:
        print('error [no admissible column]: %s' % exc, file=sys.stderr)
        return 1
    except SimpleZeroViolationError as exc:
        print('error [simple-zero violation]: %s' % exc, file=sys.stderr)
        return 1
    except (ZeroDivisionError, ArithmeticError) as exc:
        print('error [computation]: %s' % exc, file=sys.stderr)
        return 1


if __name__ == '__main__':
    sys.exit(main())
