import os
import subprocess
import sys
from pathlib import Path

import pytest

from twistvol import (ParseError, bundled_job_path, load_job, parse_job,
                      parse_presentation)
from twistvol.cli import JobError, main

FIG8_JOB = str(bundled_job_path('figure-eight'))
FIG8_TEXT = bundled_job_path('figure-eight').read_text(encoding='utf-8')
FIG8_REP_A = 'rep a: [[[1,0],[1,0]],[[0,0],[1,0]]]'
FIG8_REP_B = 'rep b: [[[1,0],[0,0]],[[0,-1],[1,0]]]'

BROKEN_JOB = """\
gens: a b
rel: aBAba = baBAb
rep a: [[[1],[1]],[[0],[1]]]
rep b: [[[1],[0]],[[-1],[1]]]
"""

# det rho(b) = 2, with a relator: loads only without validation
NON_SL2_JOB = """\
gens: a b
rel: aBAba = baBAb
rep a: [[1,1],[0,1]]
rep b: [[2,0],[-1,1]]
"""

# every invariant of this job is zero
ZERO_JOB = """\
gens: a b
rel: ab = ab
rep a: [[1,1],[0,1]]
rep b: [[1,0],[-1,1]]
"""

KNOWN_TABLE = {6: '1.35850', 7: '1.58331', 8: '1.66441'}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_rows(text):
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0].isdigit():
            rows[int(parts[0])] = parts[1:]
    return rows


class TestJobParsing:

    def test_bundled_job_loads(self):
        job = load_job(FIG8_JOB)
        assert job.presentation.generator_names == ('a', 'b')
        assert job.number_field.degree == 2
        assert job.reference == '2.02988'

    def test_relation_check_at_load(self, tmp_path):
        path = tmp_path / 'broken.job'
        path.write_text(BROKEN_JOB)
        with pytest.raises(JobError) as info:
            load_job(str(path))
        assert info.value.stage == 'relation check'

    def test_lenient_load_for_auditing(self, tmp_path):
        path = tmp_path / 'broken.job'
        path.write_text(BROKEN_JOB)
        job = load_job(str(path), validate=False)
        assert job.representation is not None

    def test_fraction_entries(self):
        job = parse_job('gens: a\nrep a: [[[1/2],[0]],[[0],[2]]]\n')
        from fractions import Fraction
        assert job.representation.images[0][0, 0].as_rational() == Fraction(1, 2)

    def test_unknown_directive(self):
        with pytest.raises(JobError) as info:
            parse_job('gens: a\nbogus: 1\n')
        assert info.value.stage == 'parse'

    @pytest.mark.parametrize('line', ['repx a: [[1,0],[0,1]]', 'field'])
    def test_directive_needs_a_known_head_and_colon(self, line):
        with pytest.raises(JobError, match="line 2: unrecognized directive"):
            parse_job('gens: a\n' + line + '\n')

    def test_blank_before_colon(self, capsys, tmp_path):
        path = tmp_path / 'spaced.job'
        path.write_text(FIG8_TEXT.replace(':', ' :'))
        code, spaced, _ = run(capsys, 'invariant', str(path), '--n', '3')
        assert code == 0
        assert spaced == run(capsys, 'invariant', FIG8_JOB, '--n', '3')[1]

    def test_missing_embed_for_quadratic_field(self):
        with pytest.raises(JobError):
            parse_job('gens: a\nfield: 1 1 1\n')

    def test_alpha_override_line(self):
        job = parse_job('gens: a b\nrel: aabb = bbaa\nalpha: a=1 b=-1\n')
        assert job.presentation.alpha == (1, -1)

    def test_presentation_errors_carry_file_line_numbers(self):
        with pytest.raises(JobError, match='line 4'):
            parse_job('# header\nreference: 1.0\ngens: a b\nrel: a?b = ba\n')
        # a job line in place of the comment leaves the message unchanged
        for text, where in (
                ('gens: a b\n#\nrel: ab = ba\ngens: a\n',
                 'line 4: duplicate gens line'),
                ('gens: a b\n#\nbogus: 1\n', 'line 3: unrecognized directive'),
                ('gens: a b\n#\nrel: ab = ba\nalpha: a2\n',
                 "line 4: bad alpha item 'a2'")):
            with pytest.raises(ParseError, match=where) as want:
                parse_presentation(text)
            with pytest.raises(JobError) as got:
                parse_job(text.replace('#', 'reference: 1.0'))
            assert str(got.value) == str(want.value)

    def test_unbalanced_matrix_literal(self):
        with pytest.raises(JobError) as info:
            parse_job('gens: a\nrep a: [[[1],[0]],[[0],[1]\n')
        assert info.value.stage == 'parse'

    @pytest.mark.parametrize('line', [
        'field: 1 1 1',
        'embed: -0.5 0.8660254038',
        'reference: 2.03',
        'rep a: [[[1,0],[1,0]],[[0,0],[1,0]]]',
        'rep  a: [[[1,0],[1,0]],[[0,0],[1,0]]]',
        'gens: a b',
        'alpha: a=1 b=1',
    ])
    def test_duplicate_directive(self, line):
        # line 5, blank in the bundled job, takes an alpha line
        text = FIG8_TEXT.replace('\n\n', '\nalpha: a=1 b=1\n', 1)
        with pytest.raises(JobError, match='line 17: duplicate') as info:
            parse_job(text + line + '\n')
        assert info.value.stage == 'parse'


class TestCompute:

    def test_table_matches_known_values(self, capsys):
        code, out, err = run(capsys, 'compute', FIG8_JOB, '--n', '4..8')
        assert code == 0 and err == ''
        rows = table_rows(out)
        assert sorted(rows) == [4, 5, 6, 7, 8]
        for n, shown in KNOWN_TABLE.items():
            assert abs(float(rows[n][1]) - float(shown)) < 5e-6
        assert abs(float(rows[4][1]) - 0.544397) < 5e-7
        assert abs(float(rows[5][1]) - 1.12273) < 5e-6

    def test_gap_column_uses_job_reference(self, capsys):
        code, out, _ = run(capsys, 'compute', FIG8_JOB, '--n', '4..5')
        rows = table_rows(out)
        assert len(rows[4]) == 3          # |A|, v_n, gap
        gap4, gap5 = float(rows[4][2]), float(rows[5][2])
        assert gap4 > gap5

    def test_csv_and_table_payloads_agree(self, capsys):
        import mpmath
        code_t, out_t, _ = run(capsys, 'compute', FIG8_JOB, '--n', '4..6')
        code_c, out_c, _ = run(capsys, 'compute', FIG8_JOB, '--n', '4..6',
                               '--format', 'csv')
        assert code_t == code_c == 0
        table = table_rows(out_t)
        csv_lines = [l for l in out_c.splitlines()
                     if l and not l.startswith('#') and not l.startswith('n,')]
        assert len(csv_lines) == len(table)
        for line in csv_lines:
            n, ratio, v_n, gap = line.split(',')
            n = int(n)
            assert mpmath.nstr(mpmath.mpf(ratio), 6) == table[n][0]
            assert mpmath.nstr(mpmath.mpf(v_n), 6) == table[n][1]
            assert mpmath.nstr(mpmath.mpf(gap), 6) == table[n][2]

    def test_low_range_prints_invariant_values_only(self, capsys):
        code, out, _ = run(capsys, 'compute', FIG8_JOB, '--n', '2..3')
        assert code == 0
        assert 'n=2: [-2,0]' in out
        assert 'n=3: [-3,0]' in out
        assert 'v_n' not in out

    def test_conjugate_root_hint_same_estimates(self, capsys, tmp_path):
        text = FIG8_TEXT.replace('embed: -0.5 0.8660254038',
                                 'embed: -0.5 -0.8660254038')
        path = tmp_path / 'conj.job'
        path.write_text(text)
        _, out_a, _ = run(capsys, 'compute', FIG8_JOB, '--n', '4..6')
        _, out_b, _ = run(capsys, 'compute', str(path), '--n', '4..6')
        assert out_a == out_b

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, 'compute', FIG8_JOB, '--n', '4..5')
        _, second, _ = run(capsys, 'compute', FIG8_JOB, '--n', '4..5')
        assert first == second

    def test_extrapolation_labeled(self, capsys):
        code, out, _ = run(capsys, 'compute', FIG8_JOB, '--n', '4..8',
                           '--extrapolate')
        assert code == 0
        assert 'EXPERIMENTAL' in out

    def test_precision_flag_changes_csv_digits(self, capsys):
        _, lo, _ = run(capsys, 'compute', FIG8_JOB, '--n', '4..4',
                       '--precision', '128', '--format', 'csv')
        _, hi, _ = run(capsys, 'compute', FIG8_JOB, '--n', '4..4',
                       '--precision', '512', '--format', 'csv')
        v_lo = lo.splitlines()[-1].split(',')[2]
        v_hi = hi.splitlines()[-1].split(',')[2]
        assert len(v_hi) > len(v_lo) > 30
        assert v_hi.startswith(v_lo[:30])

    def test_single_value_range(self, capsys):
        code, out, _ = run(capsys, 'compute', FIG8_JOB, '--n', '5')
        assert code == 0
        rows = table_rows(out)
        assert sorted(rows) == [5]

    def test_bad_range_rejected(self, capsys):
        code, _, err = run(capsys, 'compute', FIG8_JOB, '--n', '8..4')
        assert code == 1 and 'error [parse]' in err

    def test_explicit_column(self, capsys):
        _, via_auto, _ = run(capsys, 'compute', FIG8_JOB, '--n', '4..5')
        _, via_b, _ = run(capsys, 'compute', FIG8_JOB, '--n', '4..5',
                          '--column', 'b')
        assert table_rows(via_auto) == table_rows(via_b)

    def test_bad_column_letter(self, capsys):
        code, _, err = run(capsys, 'compute', FIG8_JOB, '--column', 'z')
        assert code == 1 and 'error [parse]' in err

    def test_broken_rep_fails_with_stage(self, capsys, tmp_path):
        path = tmp_path / 'broken.job'
        path.write_text(BROKEN_JOB)
        code, _, err = run(capsys, 'compute', str(path))
        assert code == 1
        assert 'error [relation check]' in err

    def test_parse_error_stage(self, capsys, tmp_path):
        path = tmp_path / 'bad.job'
        path.write_text('gens: a b\nrel: ab = a\n')
        code, _, err = run(capsys, 'compute', str(path))
        assert code == 1 and 'error [parse]' in err

    def test_reducible_field_stage(self, capsys, tmp_path):
        path = tmp_path / 'reducible.job'
        path.write_text('gens: a\nfield: -1 0 1\nembed: 1 0\n'
                        'rep a: [[[1,0],[1,0]],[[0,0],[1,0]]]\n')
        code, _, err = run(capsys, 'check', str(path))
        assert code == 1
        assert err.startswith('error [field validation]: ')
        assert 'not irreducible' in err

    def test_equidistant_hint_stage(self, capsys, tmp_path):
        # -0.5 + 1e-12 i is about as near u = -0.5 - 0.866i as the root
        # -0.5 + 0.866i; Newton's method from it converges, so it loads
        path = tmp_path / 'tie.job'
        path.write_text(FIG8_TEXT.replace('embed: -0.5 0.8660254038',
                                          'embed: -0.5 0.000000000001'))
        assert run(capsys, 'invariant', str(path))[0] == 0
        code, out, err = run(capsys, 'compute', str(path), '--n', '4..4')
        assert (code, out) == (1, '')
        assert err.startswith('error [field validation]: embedding hint ')
        assert 'selects no root' in err

    def test_singular_matrix_stage(self, capsys, tmp_path):
        path = tmp_path / 'singular.job'
        path.write_text('gens: a\nrep a: [[[0],[0]],[[0],[0]]]\n')
        code, _, err = run(capsys, 'compute', str(path), '--n', '2..2')
        assert code == 1 and 'error [representation validation]' in err

    @pytest.mark.parametrize('n', [['--n', '4..4'], []],
                             ids=['4..4', 'default'])
    def test_zero_invariant_is_a_simple_zero_violation(self, capsys,
                                                       tmp_path, n):
        path = tmp_path / 'zero.job'
        path.write_text(ZERO_JOB)
        code, out, err = run(capsys, 'compute', str(path), *n)
        assert (code, out) == (1, '')
        assert err == ('error [simple-zero violation]: expected a simple '
                       'zero at t = 1 for odd n=3, found the zero invariant\n')

    @pytest.mark.parametrize('argv, job_text, line', [
        pytest.param(['invariant', '--n', '2'],
                     FIG8_TEXT + 'alpha: a=0 b=0\n',
                     'error [no admissible column]: no generator has a '
                     'nonzero denominator det Phi(x_j - 1); the '
                     'representation is degenerate for n=2',
                     id='no-admissible-column'),
        # v_4 needs A_2(1), whose reduced denominator (t - 1)^2 vanishes
        pytest.param(['compute', '--n', '4..5'],
                     'gens: a\nrep a: [[1,1],[0,1]]\n',
                     'error [computation]: reduced denominator vanishes at '
                     't = 1 for n=2', id='computation'),
    ])
    def test_runtime_error_line(self, capsys, tmp_path, argv, job_text,
                                line):
        path = tmp_path / 'job.job'
        path.write_text(job_text)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (1, '', line + '\n')

    @pytest.mark.parametrize('command, target, line', [
        ('invariant', 'missing.job', "[Errno 2] No such file or directory"),
        ('check', '', "[Errno 21] Is a directory"),
    ], ids=['missing-file', 'directory'])
    def test_unreadable_job_line(self, capsys, tmp_path, command, target,
                                 line):
        path = str(tmp_path / target)
        code, out, err = run(capsys, command, path)
        assert (code, out) == (1, '')
        assert err == "error [parse]: %s: '%s'\n" % (line, path)


@pytest.mark.parametrize('argv, job_text, message', [
    (['compute', '--precision', '32'], None, '--precision'),
    (['compute', '--reference', 'abc'], None, '--reference'),
    (['compute'], FIG8_TEXT.replace('reference: 2.02988', 'reference: xyz'),
     'line 16: reference'),
    (['invariant', '--n', '0'], None, '--n'),
    (['invariant', '--n', '-1'], None, '--n'),
    # zero denominators: message may be (stage, text) when not a parse error
    pytest.param(['compute'], FIG8_TEXT.replace('rep b: [[[1,0],[0,0]]',
                                                'rep b: [[[1,0],[1/0,0]]'),
                 "line 13: zero denominator in '1/0'", id='rep-1/0'),
    pytest.param(['compute'], FIG8_TEXT.replace('embed: -0.5 0.8660254038',
                                                'embed: 1/0 0.8'),
                 ('field validation', "embedding hint ('1/0', '0.8')"),
                 id='embed-1/0'),
    # -0.5 is a critical point of u^2 + u + 1
    pytest.param(['check'], FIG8_TEXT.replace('embed: -0.5 0.8660254038',
                                              'embed: -0.5 0'),
                 ('field validation', 'derivative vanished during Newton '
                  'refinement; bad embedding hint'), id='embed-critical-point'),
    pytest.param(['compute'], FIG8_TEXT.replace('reference: 2.02988',
                                                'reference: 1/0'),
                 "line 16: reference '1/0'", id='reference-1/0'),
    pytest.param(['compute', '--reference', '1/0'], None,
                 "--reference '1/0'", id='option-reference-1/0'),
    pytest.param(['compute'], FIG8_TEXT.replace(
        'rep b: [[[1,0],[0,0]],[[0,-1],[1,0]]]', 'rep b: [[1,0],[[[1]],1]]'),
                 'line 13: matrix literal nested more than 3 deep',
                 id='rep-over-nested'),
    # --extrapolate fits two or more volume rows (n >= 4)
    pytest.param(['compute', '--n', '4..4', '--extrapolate'], None,
                 "--extrapolate needs at least two volume rows",
                 id='extrapolate-4..4'),
    pytest.param(['compute', '--n', '5..5', '--extrapolate'], None,
                 "got '5..5'", id='extrapolate-5..5'),
    pytest.param(['compute', '--n', '2..4', '--extrapolate'], None,
                 "got '2..4'", id='extrapolate-2..4'),
    pytest.param(['compute', '--n', '2..3', '--extrapolate'], None,
                 "got '2..3'", id='extrapolate-2..3'),
    # a reference volume must be finite
    pytest.param(['compute', '--reference', 'nan'], None,
                 "--reference 'nan' is not a decimal number",
                 id='option-reference-nan'),
    pytest.param(['compute', '--reference=-inf'], None,
                 "--reference '-inf' is not a decimal number",
                 id='option-reference--inf'),
    pytest.param(['compute'], FIG8_TEXT.replace('reference: 2.02988',
                                                'reference: nan'),
                 "line 16: reference 'nan' is not a decimal number",
                 id='reference-nan'),
    # alpha names each generator once; field takes integers; embed needs
    # a field
    pytest.param(['compute'], FIG8_TEXT + 'alpha: a=2 b=1 a=1\n',
                 'line 17: alpha names a twice', id='alpha-twice'),
    pytest.param(['compute'], FIG8_TEXT.replace('field: 1 1 1',
                                                'field: 1 1.5 1'),
                 "line 8: field coefficient '1.5' is not an integer",
                 id='field-1.5'),
    pytest.param(['compute'], FIG8_TEXT.replace('field: 1 1 1', ''),
                 'line 9: embed needs a field: line', id='embed-no-field'),
    # a job file must be UTF-8 text
    pytest.param(['invariant', '--n', '3'], b'\xff\xfe\x00bad',
                 'bad.job: not a UTF-8 text file', id='not-utf8'),
    # malformed rep and embed lines, and a job with no rep lines
    pytest.param(['compute'], FIG8_TEXT.replace(FIG8_REP_A, 'rep a:'),
                 'line 12: unexpected end of matrix literal',
                 id='rep-empty'),
    pytest.param(['compute'], FIG8_TEXT.replace(FIG8_REP_A, FIG8_REP_A + ' 5'),
                 'line 12: trailing junk in matrix literal', id='rep-junk'),
    pytest.param(['compute'], FIG8_TEXT.replace('rep a:', 'rep:'),
                 'line 12: rep line needs a generator', id='rep-no-gen'),
    pytest.param(['compute'], FIG8_TEXT.replace('embed: -0.5 0.8660254038',
                                                'embed: -0.5'),
                 'line 9: embed needs two decimal components',
                 id='embed-one-component'),
    pytest.param(['compute'], FIG8_TEXT.replace(
        FIG8_REP_A, 'rep a: [[1,1,0],[0,1,0]]'),
                 'line 12: rep matrix must be 2x2', id='rep-2x3'),
    pytest.param(['compute'], FIG8_TEXT.replace(
        FIG8_REP_A, 'rep a: [[[1,0,0],[1,0]],[[0,0],[1,0]]]'),
                 ('field validation', 'line 12: coefficient vector longer '
                  'than the field degree'), id='rep-coords-past-degree'),
    pytest.param(['compute'], FIG8_TEXT.replace(FIG8_REP_A, '').replace(
        FIG8_REP_B, ''),
                 ('representation validation',
                  'job file declares no representation'), id='no-rep'),
    # --n ranges
    pytest.param(['compute', '--n', '4-6'], None, "bad --n range '4-6'",
                 id='range-4-6'),
    pytest.param(['compute', '--n', '1..5'], None, 'compute needs n >= 2',
                 id='compute-1..5'),
    # integer options are parsed by the command, not by argparse
    pytest.param(['invariant', '--n', '4-6'], None,
                 "--n '4-6' is not an integer", id='invariant-n-4-6'),
    pytest.param(['compute', '--precision', 'abc'], None,
                 "--precision 'abc' is not an integer", id='precision-abc'),
])
def test_bad_numeric_input(capsys, monkeypatch, tmp_path, argv, job_text,
                           message):
    # every one of these is rejected before any invariant is computed
    stage, message = message if isinstance(message, tuple) else ('parse',
                                                                  message)
    def refuse(*args):
        raise AssertionError('computed before rejecting the input')

    monkeypatch.setattr('twistvol.cli.invariant_values', refuse)
    monkeypatch.setattr('twistvol.cli.twisted_alexander', refuse)
    job = FIG8_JOB
    if job_text is not None:
        job = str(tmp_path / 'bad.job')
        if isinstance(job_text, bytes):
            with open(job, 'wb') as handle:
                handle.write(job_text)
        else:
            with open(job, 'w', encoding='utf-8') as handle:
                handle.write(job_text)
    code, _, err = run(capsys, argv[0], job, *argv[1:])
    assert code == 1
    assert err.startswith('error [%s]: ' % stage) and message in err


@pytest.mark.parametrize('job_text, message', [
    pytest.param('gens:\n', 'presentation needs at least one generator',
                 id='gens-empty'),
    pytest.param('gens: 1 b\nrel: b = b\n',
                 "generator '1' is not a single lowercase letter",
                 id='gens-digit'),
    # the names are checked before any relation word is parsed
    pytest.param('gens: a B\nrel: aB = Ba\n',
                 "generator 'B' is not a single lowercase letter",
                 id='gens-uppercase'),
    pytest.param('gens: a b\nrel: ab\n',
                 'line 2: relation needs exactly one "="', id='rel-no-equals'),
    pytest.param('gens: a b\nrel: = ab\n', 'line 2: empty relation side',
                 id='rel-empty-side'),
    pytest.param('rel: ab = ba\n', 'missing gens: line', id='no-gens'),
    pytest.param('gens: a b\nrel: ab = ba\nalpha: c=1\n',
                 "line 3: alpha names unknown generator 'c'",
                 id='alpha-unknown-generator'),
    pytest.param('gens: a b\nrel: ab = ba\nalpha: a=x\n',
                 "line 3: bad alpha exponent 'x'", id='alpha-exponent-x'),
])
def test_bad_presentation_line(capsys, tmp_path, job_text, message):
    path = tmp_path / 'bad.job'
    path.write_text(job_text)
    code, out, err = run(capsys, 'invariant', str(path))
    assert (code, out, err) == (1, '', 'error [parse]: %s\n' % message)


class TestInvariantCommand:

    def test_n2_golden(self, capsys):
        code, out, _ = run(capsys, 'invariant', FIG8_JOB, '--n', '2')
        assert code == 0
        assert 'invariant: [1,0]*t^2 + [-4,0]*t^1 + [1,0]*t^0' in out
        assert 'unit:' in out

    def test_n5_golden(self, capsys):
        code, out, _ = run(capsys, 'invariant', FIG8_JOB, '--n', '5')
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith('invariant:'))
        assert line.split('invariant: ')[1] == (
            '[1,0]*t^5 + [-10,0]*t^4 + [53,0]*t^3 + [-53,0]*t^2 '
            '+ [10,0]*t^1 + [-1,0]*t^0')

    def test_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / 'bom.job'
        path.write_text(FIG8_TEXT, encoding='utf-8-sig')
        assert path.read_bytes().startswith(b'\xef\xbb\xbf')
        plain = run(capsys, 'invariant', FIG8_JOB, '--n', '3')
        assert run(capsys, 'invariant', str(path), '--n', '3') == plain
        assert plain[0] == 0

    def test_trivial_rep_classical(self, capsys):
        code, out, _ = run(capsys, 'invariant', FIG8_JOB, '--trivial-rep')
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith('invariant:'))
        assert line.split('invariant: ')[1] == (
            '([1]*t^2 + [-3]*t^1 + [1]*t^0) / ([1]*t^1 + [-1]*t^0)')

    def test_trivial_rep_rejects_other_n(self, capsys):
        classical = run(capsys, 'invariant', FIG8_JOB, '--trivial-rep')
        assert run(capsys, 'invariant', FIG8_JOB, '--trivial-rep',
                   '--n', '1') == classical
        for n in ('5', '2', '0'):
            code, out, err = run(capsys, 'invariant', FIG8_JOB,
                                 '--trivial-rep', '--n', n)
            assert (code, out) == (1, '')
            assert err.startswith('error [parse]: ')
            assert '--trivial-rep' in err and '--n %s' % n in err


class TestCheckCommand:

    def test_good_job_passes(self, capsys):
        code, out, _ = run(capsys, 'check', FIG8_JOB)
        assert code == 0
        assert 'FAIL' not in out
        for name in ('relation check', 'determinant check',
                     'fox fundamental identity', 'column independence',
                     'parity of zero'):
            assert name in out

    def test_broken_rep_fails_relation_check(self, capsys, tmp_path):
        path = tmp_path / 'broken.job'
        path.write_text(BROKEN_JOB)
        code, out, _ = run(capsys, 'check', str(path))
        assert code == 1
        assert 'FAIL  relation check' in out

    def test_trivial_self_relation_passes(self, capsys, tmp_path):
        path = tmp_path / 'easy.job'
        path.write_text('gens: a b\nrel: ab = ab\n'
                        'rep a: [[[1],[0]],[[0],[1]]]\n'
                        'rep b: [[[1],[0]],[[0],[1]]]\n')
        code, out, _ = run(capsys, 'check', str(path))
        assert code == 0
        assert 'FAIL' not in out
        path.write_text(ZERO_JOB)
        code, out, _ = run(capsys, 'check', str(path))
        assert code == 0
        assert 'FAIL' not in out and out.count('vacuous') == 2

    def test_non_sl2_generator_without_relators_fails(self, capsys,
                                                      tmp_path):
        # no relator, so no sigma_n is expanded: the denominator alone
        # must reject det != 1 in every invariant check
        path = tmp_path / 'diagonal.job'
        path.write_text('gens: a\nrep a: [[2,0],[0,1]]\n')
        code, out, _ = run(capsys, 'check', str(path))
        rejected = 'ValueError: symmetric power expects determinant 1'
        assert code == 1
        assert out == (
            'FAIL  determinant check: det != 1 for a\n'
            'PASS  relation check: 0 relation(s) hold exactly\n'
            'PASS  fox fundamental identity: fundamental identity holds on '
            'all relators\n'
            'FAIL  column independence (n=2): %s\n'
            'FAIL  column independence (n=3): %s\n'
            'FAIL  parity of zero at t=1 (n=2): %s\n'
            'FAIL  parity of zero at t=1 (n=3): %s\n' % ((rejected,) * 4))

    def test_non_sl2_image_with_relator_fails(self, capsys, tmp_path):
        # column a's Wada blocks expand sigma_n of words through b, and
        # column b's denominator is sigma_n(rho(b)): one error text
        path = tmp_path / 'non_sl2.job'
        path.write_text(NON_SL2_JOB)
        code, out, _ = run(capsys, 'check', str(path))
        rejected = 'ValueError: symmetric power expects determinant 1'
        assert code == 1
        assert out == (
            'FAIL  determinant check: det != 1 for b\n'
            'FAIL  relation check: relation 1 fails under the '
            'representation; difference Matrix[[-2], [2]; [2], [1/2]]\n'
            'PASS  fox fundamental identity: fundamental identity holds on '
            'all relators\n'
            'FAIL  column independence (n=2): %s\n'
            'FAIL  column independence (n=3): %s\n'
            'FAIL  parity of zero at t=1 (n=2): %s\n'
            'FAIL  parity of zero at t=1 (n=3): %s\n' % ((rejected,) * 4))
        code, out, err = run(capsys, 'invariant', str(path), '--n', '3')
        assert (code, out, err) == (
            1, '', 'error [determinant check]: det != 1 for b\n')

    def test_no_admissible_column_fails(self, capsys, tmp_path):
        # alpha = 0 makes every denominator det(sigma_n(A) - I) vanish
        path = tmp_path / 'alpha0.job'
        path.write_text(FIG8_TEXT + 'alpha: a=0 b=0\n')
        code, out, _ = run(capsys, 'check', str(path))
        degenerate = ('NoAdmissibleColumnError: no generator has a nonzero '
                      'denominator det Phi(x_j - 1); the representation is '
                      'degenerate for n=%d')
        assert code == 1
        assert out == (
            'PASS  determinant check: all det = 1\n'
            'PASS  relation check: 1 relation(s) hold exactly\n'
            'PASS  fox fundamental identity: fundamental identity holds on '
            'all relators\n'
            'FAIL  column independence (n=2): no admissible column\n'
            'FAIL  column independence (n=3): no admissible column\n'
            'FAIL  parity of zero at t=1 (n=2): %s\n'
            'FAIL  parity of zero at t=1 (n=3): %s\n'
            % (degenerate % 2, degenerate % 3))

    def test_no_column_option(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(['check', FIG8_JOB, '--column', 'b'])
        assert info.value.code == 2
        assert 'unrecognized arguments: --column b' in capsys.readouterr().err


class TestConsoleEntry:

    def test_module_invocation(self):
        # the subprocess finds the package in src/ with no install
        src = str(Path(__file__).resolve().parents[1] / 'src')
        path = os.environ.get('PYTHONPATH')
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ''))
        proc = subprocess.run(
            [sys.executable, '-m', 'twistvol', 'invariant', FIG8_JOB, '--n', '2'],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert '[-4,0]*t^1' in proc.stdout
