"""Facts about the twisted Alexander invariants A_n(t) of a two-bridge
knot K(p/q), checked on the bundled figure-eight job and the eight Riley
jobs at n = 2..5 (n = 2..3 for the degree-8 field of K(17/5)), on the
torus knot K(5/1) = T(2, 5), the non-hyperbolic control, at n = 2..7,
and on the figure-eight also at n = 11..15 and 20, where every numerator
evaluation runs the field's coordinate determinant, NumberField._det:

- reciprocity, A_n(1/t) = +/- t^k A_n(t): sigma_n of SL(2) is self-dual
  (Hillman-Silver-Williams, AGT 10, 2010);
- deg A_n = n (2g - 1) for the genus g: at most that (Friedl-Kim,
  Topology 45, 2006), equal with leading coefficient +/- 1 on fibered
  knots (Cha 2003; Goda-Kitano-Morifuji 2005);
- on the non-fibered knots, equality and a leading coefficient other
  than +/- 1 are observed, as Dunfield-Friedl-Jackson (Exp. Math. 21,
  2012) observe at n = 2; not a theorem.

For K(p/q), q even, p/q has a continued fraction whose entries are all
even, of length 2g; the knot is fibered exactly when every entry is
+/- 2 (Hartley 1979; Gabai-Kazez 1990).  K(p/q) = K(p/(q - p)), so an
odd q is replaced by q - p.

The n = 20 figure-eight invariant is also pinned by the SHA-256 of its
printed form.
"""

import hashlib
from fractions import Fraction

import pytest

from twistvol import (LaurentPolynomial, TwistConfig, bundled_job_path,
                      equal_up_to_unit, parse_job, twisted_alexander,
                      value_at_one)

from conftest import K7_3_TEXT
from test_cli import K5_1_JOB

# The Riley parabolic representations of K(p/q), field degree 4..8; the
# embedding is the root with the largest imaginary part.
RILEY_TEXTS = {
    (9, 7): '''\
gens: a b
rel: aBaBAbAba = baBaBAbAb
field: 1 2 7 5 1
embed: -0.100768253590 0.400531753519
rep a: [[[1,0,0,0],[1,0,0,0]],[[0,0,0,0],[1,0,0,0]]]
rep b: [[[1,0,0,0],[0,0,0,0]],[[0,-1,0,0],[1,0,0,0]]]
''',
    (11, 3): '''\
gens: a b
rel: abaBABAbaba = babaBABAbab
field: -1 -1 -3 8 -5 1
embed: 1.964913385287 0.621896283522
rep a: [[[1,0,0,0,0],[1,0,0,0,0]],[[0,0,0,0,0],[1,0,0,0,0]]]
rep b: [[[1,0,0,0,0],[0,0,0,0,0]],[[0,-1,0,0,0],[1,0,0,0,0]]]
''',
    (11, 5): '''\
gens: a b
rel: abABabABaba = babABabABab
field: -1 3 -3 4 -1 1
embed: 0.058181377385 1.691279149514
rep a: [[[1,0,0,0,0],[1,0,0,0,0]],[[0,0,0,0,0],[1,0,0,0,0]]]
rep b: [[[1,0,0,0,0],[0,0,0,0,0]],[[0,-1,0,0,0],[1,0,0,0,0]]]
''',
    (13, 3): '''\
gens: a b
rel: ababABABababa = bababABABabab
field: 1 -5 6 -16 17 -7 1
embed: -0.087729331545 0.567441286801
rep a: [[[1,0,0,0,0,0],[1,0,0,0,0,0]],[[0,0,0,0,0,0],[1,0,0,0,0,0]]]
rep b: [[[1,0,0,0,0,0],[0,0,0,0,0,0]],[[0,-1,0,0,0,0],[1,0,0,0,0,0]]]
''',
    (13, 5): '''\
gens: a b
rel: abABAbaBABaba = babABAbaBABab
field: 1 -1 2 -4 5 -3 1
embed: 0.841163901914 1.200142627283
rep a: [[[1,0,0,0,0,0],[1,0,0,0,0,0]],[[0,0,0,0,0,0],[1,0,0,0,0,0]]]
rep b: [[[1,0,0,0,0,0],[0,0,0,0,0,0]],[[0,-1,0,0,0,0],[1,0,0,0,0,0]]]
''',
    (15, 7): '''\
gens: a b
rel: abABabABabABaba = babABabABabABab
field: -1 4 -6 10 -5 6 -1 1
embed: 0.023171027603 1.829532433908
rep a: [[[1,0,0,0,0,0,0],[1,0,0,0,0,0,0]],[[0,0,0,0,0,0,0],[1,0,0,0,0,0,0]]]
rep b: [[[1,0,0,0,0,0,0],[0,0,0,0,0,0,0]],[[0,-1,0,0,0,0,0],[1,0,0,0,0,0,0]]]
''',
    (17, 5): '''\
gens: a b
rel: abaBABababABAbaba = babaBABababABAbab
field: 1 -4 -6 14 3 -22 19 -7 1
embed: 1.679246255265 0.851241638634
rep a: [[[1,0,0,0,0,0,0,0],[1,0,0,0,0,0,0,0]],[[0,0,0,0,0,0,0,0],[1,0,0,0,0,0,0,0]]]
rep b: [[[1,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0]],[[0,-1,0,0,0,0,0,0],[1,0,0,0,0,0,0,0]]]
''',
}

JOBS = {(5, 3): bundled_job_path('figure-eight').read_text(encoding='utf-8'),
        (7, 3): K7_3_TEXT, (5, 1): K5_1_JOB, **RILEY_TEXTS}

# the n of each job's invariants; 2..5 where not listed
NS = {(5, 3): [2, 3, 4, 5, 11, 12, 13, 14, 15, 20], (17, 5): [2, 3],
      (5, 1): [2, 3, 4, 5, 6, 7]}

# SHA-256 of what `twistvol invariant --n 20` prints for the bundled
# figure-eight, followed by 'value at t=1: ' and value_at_one, one line
# each; the figure-eight/20 digest of bench/expected.json
FIG8_N20_SHA256 = ('f4baf3cc5f20d8bdc3899bc25090596936150241ca4f10412025'
                   '7070f989a698')


def even_continued_fraction(p, q):
    """The even entries a_1, ..., a_k of p/q = a_1 + 1/(a_2 + 1/(...)).

    For p odd, q even, p/q is no odd integer, so exactly one even a_1
    has |p/q - a_1| < 1; the remainder's reciprocal is again such a
    fraction until it is an even integer.
    """
    if q % 2:
        q -= p
    x, entries = Fraction(p, q), []
    while True:
        a = 2 * round(x / 2)
        entries.append(a)
        if x == a:
            return entries
        x = 1 / (x - a)


def reciprocal(poly):
    """poly(1/t)."""
    return LaurentPolynomial(poly.field,
                             {-e: c for e, c in poly.coeffs.items()})


def span(poly):
    return poly.max_exp - poly.min_exp


@pytest.fixture(scope='module')
def invariants():
    """(p, q) -> {n: TwistedAlexander} over the ten jobs."""
    out = {}
    for knot, text in JOBS.items():
        job = parse_job(text)
        out[knot] = {n: twisted_alexander(TwistConfig(
            job.presentation, job.representation, n))
            for n in NS.get(knot, range(2, 6))}
    return out


def test_continued_fractions():
    assert even_continued_fraction(5, 3) == [-2, -2]
    assert even_continued_fraction(7, 3) == [-2, 4]
    assert even_continued_fraction(3, 1) == [-2, 2]   # the trefoil
    assert even_continued_fraction(5, 1) == [-2, 2, -2, 2]


@pytest.mark.parametrize('knot', sorted(JOBS), ids='K({0[0]}/{0[1]})'.format)
def test_reciprocity(invariants, knot):
    for n, ta in invariants[knot].items():
        num, den = ta.value.num, ta.value.den
        assert equal_up_to_unit(reciprocal(num) * den,
                                num * reciprocal(den)), n


@pytest.mark.parametrize('knot', sorted(JOBS), ids='K({0[0]}/{0[1]})'.format)
def test_degree_is_n_times_2g_minus_1(invariants, knot):
    entries = even_continued_fraction(*knot)
    assert len(entries) % 2 == 0
    genus = len(entries) // 2
    for n, ta in invariants[knot].items():
        assert span(ta.value.num) - span(ta.value.den) == n * (2 * genus - 1), n


@pytest.mark.parametrize('knot', sorted(JOBS), ids='K({0[0]}/{0[1]})'.format)
def test_monic_exactly_when_fibered(invariants, knot):
    fibered = all(abs(a) == 2 for a in even_continued_fraction(*knot))
    for n, ta in invariants[knot].items():
        num = ta.value.num
        lead = num.coeffs[num.max_exp]
        assert (lead == 1 or lead == -1) == fibered, n


def test_figure_eight_n20_output(invariants):
    ta = invariants[5, 3][20]
    printed = ('n: %d\ndeleted column: %s\ninvariant: %s\nunit: %s\n'
               'value at t=1: %s\n' % (ta.n, ta.column, ta.value,
                                        ta.unit_str(), value_at_one(ta)))
    assert hashlib.sha256(printed.encode()).hexdigest() == FIG8_N20_SHA256
