import subprocess
import sys

import pytest

from twistvol import bundled_job_path, load_job, parse_job
from twistvol.cli import JobError, main

FIG8_JOB = str(bundled_job_path('figure-eight'))
FIG8_TEXT = bundled_job_path('figure-eight').read_text(encoding='utf-8')

BROKEN_JOB = """\
gens: a b
rel: aBAba = baBAb
rep a: [[[1],[1]],[[0],[1]]]
rep b: [[[1],[0]],[[-1],[1]]]
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

    def test_missing_embed_for_quadratic_field(self):
        with pytest.raises(JobError):
            parse_job('gens: a\nfield: 1 1 1\n')

    def test_alpha_override_line(self):
        job = parse_job('gens: a b\nrel: aabb = bbaa\nalpha: a=1 b=-1\n')
        assert job.presentation.alpha == (1, -1)

    def test_presentation_errors_carry_file_line_numbers(self):
        with pytest.raises(JobError, match='line 4'):
            parse_job('# header\nreference: 1.0\ngens: a b\nrel: a?b = ba\n')

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
    ])
    def test_duplicate_directive(self, line):
        with pytest.raises(JobError, match='line 17: duplicate') as info:
            parse_job(FIG8_TEXT + line + '\n')
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
        text = open(FIG8_JOB).read().replace('embed: -0.5 0.8660254038',
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

    def test_singular_matrix_stage(self, capsys, tmp_path):
        path = tmp_path / 'singular.job'
        path.write_text('gens: a\nrep a: [[[0],[0]],[[0],[0]]]\n')
        code, _, err = run(capsys, 'compute', str(path), '--n', '2..2')
        assert code == 1 and 'error [representation validation]' in err


@pytest.mark.parametrize('argv, job_text, message', [
    (['compute', '--precision', '32'], None, '--precision'),
    (['compute', '--reference', 'abc'], None, '--reference'),
    (['compute'], FIG8_TEXT.replace('reference: 2.02988', 'reference: xyz'),
     'line 16: reference'),
    (['invariant', '--n', '0'], None, '--n'),
    (['invariant', '--n', '-1'], None, '--n'),
])
def test_bad_numeric_input(capsys, monkeypatch, tmp_path, argv, job_text,
                           message):
    # every one of these is rejected before any invariant is computed
    def refuse(*args):
        raise AssertionError('computed before rejecting the input')

    monkeypatch.setattr('twistvol.cli.invariant_values', refuse)
    monkeypatch.setattr('twistvol.cli.twisted_alexander', refuse)
    job = FIG8_JOB
    if job_text is not None:
        job = str(tmp_path / 'bad.job')
        with open(job, 'w', encoding='utf-8') as handle:
            handle.write(job_text)
    code, _, err = run(capsys, argv[0], job, *argv[1:])
    assert code == 1
    assert err.startswith('error [parse]: ') and message in err


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

    def test_trivial_rep_classical(self, capsys):
        code, out, _ = run(capsys, 'invariant', FIG8_JOB, '--trivial-rep')
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith('invariant:'))
        assert line.split('invariant: ')[1] == (
            '([1]*t^2 + [-3]*t^1 + [1]*t^0) / ([1]*t^1 + [-1]*t^0)')


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


class TestConsoleEntry:

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, '-m', 'twistvol', 'invariant', FIG8_JOB, '--n', '2'],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert '[-4,0]*t^1' in proc.stdout
