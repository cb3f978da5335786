"""Write the Riley two-bridge job pool used by the riley-batch workload.

For a two-bridge knot K(p/q) (p, q odd, 0 < q < p) the knot group is
<a, b | wa = bw> with w = a^e1 b^e2 a^e3 ... b^e(p-1) and
e_i = (-1)^floor(i q / p).  Riley's parabolic representation sends
a -> [[1, 1], [0, 1]] and b -> [[1, 0], [-u, 1]]; it satisfies the
relation exactly when u is a root of every entry of
rho(w) rho(a) - rho(b) rho(w).  The minimal polynomial written to the
job is the irreducible factor of highest degree that divides every
nonzero entry (the factor u, the abelian representation, is dropped).

Needs sympy; it is a tool for regenerating the checked-in jobs, not a
dependency of twistvol or of the benchmark run.  Every job written must
pass all seven lines of `twistvol check`:

    python3 bench/riley.py
"""

import contextlib
import io
import os
import sys

import sympy

from loading import BENCH_DIR, import_twistvol

JOBS_DIR = os.path.join(BENCH_DIR, 'jobs')

# (p, q): one knot per field degree (p - 1) / 2 = 3..8, two at degrees 5, 6
POOL = [(7, 3), (9, 7), (11, 3), (11, 5), (13, 3), (13, 5), (15, 7), (17, 5)]


def word_exponents(p, q):
    return [(-1) ** ((i * q) // p) for i in range(1, p)]


def word_text(p, q):
    letters = []
    for i, e in enumerate(word_exponents(p, q)):
        letter = 'ab'[i % 2]
        letters.append(letter if e > 0 else letter.upper())
    return ''.join(letters)


def riley_polynomial(p, q):
    """Monic integer minimal polynomial of u, constant coefficient first."""
    u = sympy.Symbol('u')
    A = sympy.Matrix([[1, 1], [0, 1]])
    B = sympy.Matrix([[1, 0], [-u, 1]])
    W = sympy.eye(2)
    for i, e in enumerate(word_exponents(p, q)):
        g = A if i % 2 == 0 else B
        W = W * (g if e > 0 else g.inv())
    entries = [sympy.expand(x) for x in W * A - B * W]
    entries = [sympy.Poly(x, u) for x in entries if x != 0]
    common = entries[0]
    for x in entries[1:]:
        common = sympy.gcd(common, x)
    _, factors = sympy.factor_list(common)
    best = max((f for f, _ in factors if f.degree() >= 2),
               key=lambda f: f.degree())
    for x in entries:
        if not sympy.div(x, best)[1].is_zero:
            raise ValueError('factor does not divide every entry')
    coeffs = [int(c) for c in reversed(best.all_coeffs())]
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    if coeffs[-1] != 1:
        raise ValueError('Riley factor is not monic')
    return coeffs


def embed_hint(coeffs):
    """The root with the largest imaginary part, to twelve decimals."""
    u = sympy.Symbol('u')
    poly = sympy.Poly(list(reversed(coeffs)), u)
    roots = poly.nroots(n=30)
    root = max(roots, key=lambda z: (sympy.im(z), sympy.re(z)))
    return '%.12f %.12f' % (float(sympy.re(root)), float(sympy.im(root)))


def vec(degree, index, value):
    out = [0] * degree
    out[index] = value
    return '[%s]' % ','.join(str(c) for c in out)


def job_text(p, q):
    coeffs = riley_polynomial(p, q)
    d = len(coeffs) - 1
    one, zero, neg_u = vec(d, 0, 1), vec(d, 0, 0), vec(d, 1, -1)
    w = word_text(p, q)
    return '\n'.join([
        '# Two-bridge knot K(%d/%d): Riley parabolic representation over a'
        % (p, q),
        '# degree-%d field; written by bench/riley.py.  The embedding is the'
        % d,
        '# root with the largest imaginary part, not a certified holonomy root.',
        'gens: a b',
        'rel: %sa = b%s' % (w, w),
        'field: %s' % ' '.join(str(c) for c in coeffs),
        'embed: %s' % embed_hint(coeffs),
        'rep a: [[%s,%s],[%s,%s]]' % (one, one, zero, one),
        'rep b: [[%s,%s],[%s,%s]]' % (one, zero, neg_u, one),
        '',
    ])


def check_job(tv, path):
    """Run `twistvol check` on a job; return (exit status, report)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = tv.cli.main(['check', path])
    return status, out.getvalue()


def main():
    tv = import_twistvol()
    os.makedirs(JOBS_DIR, exist_ok=True)
    failed = False
    for p, q in POOL:
        path = os.path.join(JOBS_DIR, 'k%d_%d.job' % (p, q))
        with open(path, 'w', encoding='utf-8') as handle:
            handle.write(job_text(p, q))
        status, report = check_job(tv, path)
        lines = report.strip().splitlines()
        ok = status == 0 and len(lines) == 7
        failed = failed or not ok
        print('%s  %s' % ('PASS' if ok else 'FAIL', os.path.basename(path)))
        if not ok:
            print(report)
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main())
