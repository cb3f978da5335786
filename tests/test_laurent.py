import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistvol import (LaurentPolynomial, NumberField, PolyMatrix, determinant,
                      equal_up_to_unit, laurent, normalize_unit, order_at_one,
                      parse_polynomial, reduce, symmetric_power)
from twistvol import field as field_module
from twistvol.laurent import (_dense_divmod, _dense_eval, _dense_gcd,
                              _dense_trim, _newton_interpolate)

from conftest import K9_7_FIELD, K17_5_FIELD, make_ufield

# one field per degree for the forced-path property
PATH_FIELDS = {1: NumberField.rationals(), 2: make_ufield(),
               3: NumberField([-2, 0, 0, 1], ('1.26', '0')),
               4: NumberField(*K9_7_FIELD), 8: NumberField(*K17_5_FIELD)}


def cofactor_determinant(m):
    """Independent oracle: first-row cofactor expansion.

    The minor on the last k rows and a k-tuple of columns is expanded
    along its first row once per column tuple, and memoized.
    """
    n = m.nrows
    memo = {}

    def minor(cols):
        if not cols:
            return LaurentPolynomial.one(m.field)
        i = n - len(cols)
        if len(cols) == 1:
            return m[i, cols[0]]
        if cols not in memo:
            total = LaurentPolynomial.zero(m.field)
            for k, j in enumerate(cols):
                term = m[i, j] * minor(cols[:k] + cols[k + 1:])
                total = total + term if k % 2 == 0 else total - term
            memo[cols] = total
        return memo[cols]

    return minor(tuple(range(n)))


def random_rational(rng, max_den):
    num = rng.randrange(-4, 5)
    if max_den == 1:
        return Fraction(num)
    return Fraction(num, rng.randrange(1, max_den + 1))


def random_poly(field, rng, lo=-2, hi=2, density=0.7, max_den=1):
    coeffs = {}
    for e in range(lo, hi + 1):
        if rng.random() < density:
            coeffs[e] = field.element([random_rational(rng, max_den)
                                       for _ in range(field.degree)])
    return LaurentPolynomial(field, coeffs)


def sparse_matrix(field, rng, pattern, max_den=1):
    """A random n x n matrix, n in 2..5, with singleton rows or columns.

    'triangular': upper triangular with rows and columns permuted;
    'zero column': one column of zeros; 'odd singleton': one row whose
    only nonzero entry sits at an odd i + j.
    """
    n = rng.randrange(2, 6)
    zero = LaurentPolynomial.zero(field)
    rows = [[random_poly(field, rng, max_den=max_den) for _ in range(n)]
            for _ in range(n)]
    if pattern == 'triangular':
        perm_i, perm_j = rng.sample(range(n), n), rng.sample(range(n), n)
        rows = [[rows[perm_i[i]][perm_j[j]] if perm_j[j] >= perm_i[i] else zero
                 for j in range(n)] for i in range(n)]
    elif pattern == 'zero column':
        k = rng.randrange(n)
        rows = [[zero if j == k else p for j, p in enumerate(row)]
                for row in rows]
    else:
        i = rng.randrange(n)
        j = rng.choice([j for j in range(n) if (i + j) % 2])
        entry = LaurentPolynomial.t(field, rng.randrange(-2, 3),
                                    random_rational(rng, max_den) or 1)
        rows[i] = [entry if k == j else zero for k in range(n)]
    return PolyMatrix(field, rows)


class TestPolyMatrix:

    @pytest.mark.parametrize('field_name', ['qfield', 'ufield', 'cubic'])
    @pytest.mark.parametrize('max_den', [1, 6], ids=['integers', 'fractions'])
    def test_round_trip(self, request, field_name, max_den):
        field = request.getfixturevalue(field_name)
        rng = random.Random(318)
        for trial in range(10):
            nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 6)
            rows = [[random_poly(field, rng, max_den=max_den)
                     for _ in range(ncols)] for _ in range(nrows)]
            m = PolyMatrix(field, rows)
            assert (m.nrows, m.ncols) == (nrows, ncols)
            assert all(m[i, j] == rows[i][j]
                       for i in range(nrows) for j in range(ncols))
            start = rng.randrange(ncols)
            width = rng.randrange(ncols - start + 1)
            dropped = m.drop_columns(start, width)
            want = [row[:start] + row[start + width:] for row in rows]
            assert (dropped.nrows, dropped.ncols) == (nrows, ncols - width)
            assert all(dropped[i, j] == want[i][j]
                       for i in range(nrows) for j in range(ncols - width))

    def test_ragged_rejected(self, qfield):
        with pytest.raises(ValueError, match='ragged'):
            PolyMatrix(qfield, [[1, 2], [3]])


class TestArithmetic:

    def test_difference_of_squares(self, qfield):
        t = LaurentPolynomial.t(qfield)
        assert (t - 1) * (t + 1) == t ** 2 - 1

    def test_additive_identity(self, ufield):
        rng = random.Random(1)
        p = random_poly(ufield, rng)
        assert p + LaurentPolynomial.zero(ufield) == p

    def test_laurent_units(self, qfield):
        t = LaurentPolynomial.t(qfield)
        tinv = LaurentPolynomial.t(qfield, -1)
        assert tinv * t == LaurentPolynomial.one(qfield)

    def test_no_zero_coefficients_stored(self, qfield):
        t = LaurentPolynomial.t(qfield)
        assert ((t - 1) - (t - 1)).coeffs == {}

    @pytest.mark.parametrize('field_name', ['qfield', 'ufield', 'cubic'])
    def test_against_element_dicts(self, request, field_name):
        # reference: maps exponent -> NFElement, added and multiplied
        # term by term, zeros dropped at the end
        field = request.getfixturevalue(field_name)
        rng = random.Random(1301)

        def nonzero(d):
            return {e: c for e, c in d.items() if not c.is_zero()}

        def ref_add(a, b):
            out = dict(a)
            for e, c in b.items():
                out[e] = out.get(e, field.zero) + c
            return nonzero(out)

        def ref_mul(a, b):
            out = {}
            for e1, x in a.items():
                for e2, y in b.items():
                    out[e1 + e2] = out.get(e1 + e2, field.zero) + x * y
            return nonzero(out)

        def random_dict():
            return {rng.randrange(-4, 4): (
                field.zero if rng.random() < 0.3 else
                field.element([random_rational(rng, 6)
                               for _ in range(field.degree)]))
                for _ in range(rng.randrange(0, 7))}

        for _ in range(40):
            a, b = random_dict(), random_dict()
            p, q = LaurentPolynomial(field, a), LaurentPolynomial(field, b)
            assert p.coeffs == nonzero(a) and q.coeffs == nonzero(b)
            neg_b = {e: -c for e, c in b.items()}
            for got, want in ((p + q, ref_add(a, b)),
                              (p - q, ref_add(a, neg_b)),
                              (p * q, ref_mul(a, b))):
                assert got.coeffs == want
                # int coordinates over one scale, reduced, so equality
                # holds across construction paths
                ints = [x for c in got.terms.values() for x in c]
                assert all(type(x) is int for x in [got.scale] + ints)
                assert got.scale > 0 and gcd(got.scale, *ints) == 1
                assert got == LaurentPolynomial(field, want)


class TestDeterminant:

    def test_triangular(self, qfield):
        t = LaurentPolynomial.t(qfield)
        m = PolyMatrix(qfield, [[t, LaurentPolynomial.one(qfield)],
                                [LaurentPolynomial.zero(qfield), t]])
        assert determinant(m) == t ** 2

    def test_twisted_denominator_golden(self, ufield, fig8_rep):
        # det(t * sigma_2(rho(b)) - I) = (t - 1)^2
        B = symmetric_power(fig8_rep.images[1], 2)
        t = LaurentPolynomial.t(ufield)
        entries = [[t * B[i, j] - (1 if i == j else 0) for j in range(2)]
                   for i in range(2)]
        m = PolyMatrix(ufield, entries)
        assert determinant(m) == (t - 1) ** 2

    # fractions exercise the row scaling; in Z[x]/(x^3 - 2) pivots such
    # as 1 + x have norm 3, so the kernel's exact division is by D = 3
    @pytest.mark.parametrize('field_name', ['ufield', 'cubic'])
    @pytest.mark.parametrize('max_den', [1, 6], ids=['integers', 'fractions'])
    def test_against_cofactor_oracle(self, request, field_name, max_den):
        field = request.getfixturevalue(field_name)
        rng = random.Random(314)
        for trial in range(55):
            n = rng.randrange(1, 6)
            m = PolyMatrix(field, [[random_poly(field, rng, max_den=max_den)
                                    for _ in range(n)] for _ in range(n)])
            assert determinant(m) == cofactor_determinant(m)
        # sparse inputs: interpolated, except a few 2 x 2 ones that come
        # out triangular as given and take the diagonal product
        for trial in range(12):
            pattern = ('triangular', 'zero column', 'odd singleton')[trial % 3]
            m = sparse_matrix(field, rng, pattern, max_den)
            assert determinant(m) == cofactor_determinant(m), pattern

    @pytest.mark.parametrize('path, degree', [
        ('pack-once', 1), ('pack-once', 2), ('pack-once', 3),
        ('pack-once', 4), ('pack-once', 8),
        ('_det', 1), ('_det', 2), ('_det', 3), ('_det', 4), ('_det', 8)])
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_forced_path_against_cofactor_oracle(self, path, degree, data):
        """Either path, forced by _PACK_ONCE_BITS at every degree, equals
        the cofactor oracle on 2..4 rows with exponents -2..2, t-degree
        >= 2 and one row constant in t (a single plane, which _at must
        copy, since _det eliminates in place over either ring)."""
        field = PATH_FIELDS[degree]
        n = data.draw(st.integers(2, 4))
        flat = data.draw(st.integers(0, n - 1))
        coordinate = st.one_of(st.integers(-5, 5), st.fractions(
            min_value=-5, max_value=5, max_denominator=4))

        def entry(exponents):
            return LaurentPolynomial(field, {e: field.element(data.draw(
                st.lists(coordinate, min_size=degree, max_size=degree)))
                for e in exponents})

        rows = [[entry([0] if i == flat else data.draw(st.sets(
            st.integers(-2, 2), max_size=3))) for _ in range(n)]
            for i in range(n)]
        # t^-2 + t in one entry of another row: t-degree at least 3
        i = (flat + 1) % n
        rows[i][0] = rows[i][0] + LaurentPolynomial.t(field, -2) + (
            LaurentPolynomial.t(field))
        m = PolyMatrix(field, rows)
        limit = 10 ** 9 if path == 'pack-once' else -1
        with mock.patch.object(laurent, '_PACK_ONCE_BITS', limit):
            assert determinant(m) == cofactor_determinant(m)

    @pytest.mark.parametrize('field_name', ['qfield', 'ufield', 'cubic'])
    @pytest.mark.parametrize('side', ['upper', 'lower'])
    def test_triangular_is_diagonal_product(self, request, field_name, side,
                                            monkeypatch):
        field = request.getfixturevalue(field_name)
        rng = random.Random(317)
        zero = LaurentPolynomial.zero(field)
        calls = []
        eliminate = NumberField._det

        # both paths, the packed ints' degree-1 ring included
        def counting(self, rows):
            calls.append(None)
            return eliminate(self, rows)

        monkeypatch.setattr(NumberField, '_det', counting)
        for trial in range(12):
            n = rng.randrange(1, 6)
            m = PolyMatrix(field, [[random_poly(field, rng, max_den=6)
                                    if (j >= i if side == 'upper' else j <= i)
                                    else zero for j in range(n)]
                                   for i in range(n)])
            assert determinant(m) == cofactor_determinant(m)
        assert calls == []

    def test_alternating_under_row_swap(self, ufield):
        rng = random.Random(315)
        for _ in range(10):
            n = rng.randrange(2, 5)
            m = PolyMatrix(ufield, [[random_poly(ufield, rng)
                                     for _ in range(n)] for _ in range(n)])
            rows = [[m[i, j] for j in range(n)] for i in range(n)]
            rows[0], rows[-1] = rows[-1], rows[0]
            swapped = PolyMatrix(ufield, rows)
            assert determinant(swapped) == -determinant(m)

    def test_empty_matrix(self, qfield):
        assert determinant(PolyMatrix(qfield, [])) == LaurentPolynomial.one(qfield)

    def test_non_square_rejected(self, qfield):
        m = PolyMatrix(qfield, [[LaurentPolynomial.one(qfield),
                                 LaurentPolynomial.one(qfield)]])
        with pytest.raises(ValueError, match='square'):
            determinant(m)

    def test_wrong_value_fails_verification_point(self, ufield,
                                                  monkeypatch):
        """A wrong kernel value at the extra point: ArithmeticError, on the
        pack-once path (the degree-1 ring's _det at each point, t = -2 the
        last) and on the coordinate path (the field's _det at each
        point)."""
        rng = random.Random(316)
        m = PolyMatrix(ufield, [[random_poly(ufield, rng) for _ in range(3)]
                                for _ in range(3)])
        want = determinant(m)
        counts = []
        kernel = NumberField._det
        for ring, limit in ((field_module._INTEGERS, None), (ufield, -1)):
            if limit is not None:
                monkeypatch.setattr(laurent, '_PACK_ONCE_BITS', limit)
            calls = []

            def counting(self, rows):
                assert self is ring
                calls.append(None)
                return kernel(self, rows)

            monkeypatch.setattr(NumberField, '_det', counting)
            assert determinant(m) == want
            points = len(calls)
            counts.append(points)

            def wrong_last(self, rows):
                calls.append(None)
                value = kernel(self, rows)
                if len(calls) % points == 0:
                    # a packed int's 1-tuple, or a field element's
                    # coordinates
                    value = (value[0] + 1,) + value[1:]
                return value

            monkeypatch.setattr(NumberField, '_det', wrong_last)
            with pytest.raises(ArithmeticError, match='verification point'):
                determinant(m)
            monkeypatch.undo()
        # both paths ran, each once per point of the same run
        assert counts[0] == counts[1] > 2

    def test_short_shift_is_caught(self, qfield, ufield, cubic, monkeypatch):
        """A pack-once shift too short for the determinant's coefficients
        raises ArithmeticError and returns no value, at degrees 1, 2, 3, 4
        and 8.  With u = (1, 2, ..., d) a 2-bit shift leaves digits over;
        with u the generator, or at 3 and 4 bits, the digits can fit, and
        then the verification point raises."""
        t = LaurentPolynomial.t(qfield)
        spread = [PolyMatrix(qfield, [[3 * t + 5, t], [2, 7 * t - 1]])]
        generated = []
        for field in (ufield, cubic, NumberField(*K9_7_FIELD),
                      NumberField(*K17_5_FIELD)):
            # every coordinate of the first u nonzero: a 2-bit shift
            # overflows the decode's n(d - 1) + 1 digits at every degree
            s = LaurentPolynomial.t(field)
            for u, cases in ((field.element(range(1, field.degree + 1)),
                              spread), (field.generator, generated)):
                u = LaurentPolynomial.constant(field, u)
                cases.append(PolyMatrix(field, [[3 * u * s + 5, s],
                                                [2 * u, 7 * s - u]]))
        for m in spread + generated:
            assert determinant(m) == cofactor_determinant(m)
        monkeypatch.setattr(laurent, '_digit_shift', lambda bound: 2)
        for m in spread:
            with pytest.raises(ArithmeticError, match='coefficient bound'):
                determinant(m)
        for shift in (2, 3, 4):
            monkeypatch.setattr(laurent, '_digit_shift',
                                lambda bound, shift=shift: shift)
            for m in spread + generated:
                with pytest.raises(ArithmeticError):
                    determinant(m)

    def test_carries_cancelling_at_minus_one_are_caught(self, monkeypatch):
        """At a 6-bit shift this matrix's t-coefficients decode into
        in-range wrong digits whose errors cancel in the alternating sum,
        so a verification point at t = -1 would pass a wrong determinant;
        the one at t = -2 raises."""
        field = NumberField(*K17_5_FIELD)
        rows = [['[-1,-2,1,1,-2,1,-3,0]*t^0 + [-3,-2,3,2,-2,1,-1,1]*t^-1',
                 '[-3,-3,2,0,3,3,2,3]*t^1 + [-2,-3,0,3,2,-3,0,1]*t^-1'],
                ['[3,0,2,1,-1,0,-1,2]*t^1 + [2,1,2,-2,-2,3,1,-1]*t^0 + '
                 '[-3,3,1,-1,1,1,2,-2]*t^-1',
                 '[2,1,-1,3,0,-1,-2,-1]*t^1 + [-3,3,-2,3,1,-1,-3,3]*t^0 + '
                 '[1,1,-2,0,2,-2,0,-2]*t^-1']]
        m = PolyMatrix(field, [[parse_polynomial(field, text) for text in row]
                               for row in rows])
        assert determinant(m) == cofactor_determinant(m)
        monkeypatch.setattr(laurent, '_digit_shift', lambda bound: 6)
        with pytest.raises(ArithmeticError, match='verification point'):
            determinant(m)

    def test_zero_row_short_circuits(self, qfield, monkeypatch):
        """A zero row in a matrix that is not triangular: 0, no kernel."""
        def refuse(*args):
            raise AssertionError('the kernel ran on a matrix with a zero row')

        monkeypatch.setattr(NumberField, '_det', refuse)
        t = LaurentPolynomial.t(qfield)
        m = PolyMatrix(qfield, [[1, t, 1], [t, 1, 1], [0, 0, 0]])
        assert determinant(m).is_zero()


def long_division(p, q):
    """(quotient, remainder) of ordinary polynomials, one term at a time."""
    field = p.field
    quo = LaurentPolynomial.zero(field)
    lead = q.coeffs[q.max_exp]
    while not p.is_zero() and p.max_exp >= q.max_exp:
        term = LaurentPolynomial.t(field, p.max_exp - q.max_exp,
                                   p.coeffs[p.max_exp] / lead)
        quo, p = quo + term, p - term * q
    return quo, p


def reference_reduce(num, den):
    """(num, den) of num / den over a gcd from a textbook Euclid loop, the
    denominator monic with lowest exponent 0; num and den nonzero."""
    a, b = num.shifted(-num.min_exp), den.shifted(-den.min_exp)
    g, r = a, b
    while not r.is_zero():
        g, r = r, long_division(g, r)[1]
    n, d = long_division(a, g)[0], long_division(b, g)[0]
    unit = 1 / d.coeffs[d.max_exp]
    return (n * unit).shifted(num.min_exp - den.min_exp), d * unit


@st.composite
def common_factor_pairs(draw, field):
    """(num, den) = (a c, b c) for random nonzero Laurent a, b, c."""
    element = st.tuples(*[st.fractions(min_value=-6, max_value=6,
                                       max_denominator=4)] * field.degree)
    polys = st.dictionaries(st.integers(-2, 3), element, min_size=1,
                            max_size=4).map(
                                lambda c: LaurentPolynomial(field, c))
    a, b, c = draw(polys), draw(polys), draw(polys)
    assume(not (a.is_zero() or b.is_zero() or c.is_zero()))
    return a * c, b * c


class TestReduce:

    @pytest.mark.parametrize('field_name', ['qfield', 'ufield', 'cubic'])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_non_divisible_against_euclid_reference(self, request,
                                                    field_name, data):
        field = request.getfixturevalue(field_name)
        num, den = data.draw(common_factor_pairs(field))
        # den does not divide num: the reduction takes the gcd path
        assume(not long_division(num.shifted(-num.min_exp),
                                 den.shifted(-den.min_exp))[1].is_zero())
        want_num, want_den = reference_reduce(num, den)
        rf = reduce(num, den)
        assert (rf.num, rf.den) == (want_num, want_den)

    def test_golden_reduction(self, qfield):
        t = LaurentPolynomial.t(qfield)
        rf = reduce((t - 1) ** 2 * (t ** 2 - 4 * t + 1), (t - 1) ** 2)
        assert rf.num == t ** 2 - 4 * t + 1
        assert rf.den == LaurentPolynomial.one(qfield)

    def test_zero_numerator(self, qfield):
        t = LaurentPolynomial.t(qfield)
        rf = reduce(LaurentPolynomial.zero(qfield), t - 1)
        assert rf.is_zero()
        assert rf.den == LaurentPolynomial.one(qfield)

    def test_self_quotient(self, ufield):
        rng = random.Random(501)
        p = random_poly(ufield, rng) + LaurentPolynomial.one(ufield)
        rf = reduce(p, p)
        assert rf.num == LaurentPolynomial.one(ufield)
        assert rf.den == LaurentPolynomial.one(ufield)

    def test_cancellation_invariance(self, ufield):
        rng = random.Random(502)
        for _ in range(25):
            num = random_poly(ufield, rng)
            den = random_poly(ufield, rng) + LaurentPolynomial.one(ufield)
            s = random_poly(ufield, rng)
            if s.is_zero() or den.is_zero():
                continue
            assert reduce(num * s, den * s) == reduce(num, den)

    def test_zero_denominator_rejected(self, qfield):
        t = LaurentPolynomial.t(qfield)
        with pytest.raises(ZeroDivisionError):
            reduce(t, LaurentPolynomial.zero(qfield))

    def test_denominator_normal_form(self, qfield):
        t = LaurentPolynomial.t(qfield)
        rf = reduce(t + 1, (2 * (t - 1)).shifted(3))
        assert rf.den == t - 1
        assert rf.den.coefficient(rf.den.max_exp) == qfield.one


def dense_product_sum(field, q, b, r):
    """q b + r on dense ascending lists, in NFElement arithmetic."""
    out = [field.zero] * max(len(q) + len(b) - 1, len(r), 1)
    for i, x in enumerate(q):
        for j, y in enumerate(b):
            out[i + j] += field.element(x) * field.element(y)
    for i, x in enumerate(r):
        out[i] += field.element(x)
    return _dense_trim([e.coeffs for e in out])


class TestDenseDivmod:
    """_dense_divmod, planned once per divisor coefficient, against
    q b + r = a with deg r < deg b."""

    @pytest.mark.parametrize('degree', sorted(PATH_FIELDS))
    @pytest.mark.parametrize('divisor', ['rational', 'irrational'])
    def test_monic_divisor(self, degree, divisor):
        field = PATH_FIELDS[degree]
        d = field.degree
        rng = random.Random(27)
        for trial in range(12):
            lower = [tuple(rng.randint(-9, 9) if divisor == 'irrational'
                           or r == 0 else 0 for r in range(d))
                     for _ in range(rng.randint(0, 3))]
            b = lower + [(1,) + (0,) * (d - 1)]
            a = [tuple(rng.randint(-50, 50) for _ in range(d))
                 for _ in range(rng.randint(0, 7))]
            if trial % 3 == 0:
                a = [tuple(Fraction(c, 6) for c in x) for x in a]
            q, r = _dense_divmod(field, a, b)
            assert len(r) < len(b) and not (r and not any(r[-1]))
            assert dense_product_sum(field, q, b, r) == _dense_trim(list(a))
            if trial % 3:
                # an integral monic divisor keeps int coordinates
                assert all(type(c) is int for x in q + r for c in x)

    def test_non_monic_divisor_through_gcd(self, cubic):
        rng = random.Random(28)

        def poly(size, den):
            return [tuple(Fraction(rng.randint(-9, 9), den)
                          for _ in range(3)) for _ in range(size)] + [
                        (Fraction(rng.randint(1, 9), den), Fraction(2), 0)]

        for _ in range(5):
            c, u, v = poly(2, 5), poly(2, 1), poly(1, 3)
            a = dense_product_sum(cubic, u, c, [])
            b = dense_product_sum(cubic, v, c, [])
            q, r = _dense_divmod(cubic, a, b)
            assert len(r) < len(b)
            assert dense_product_sum(cubic, q, b, r) == a
            g = _dense_gcd(cubic, a, b)
            # c divides the gcd, and the gcd divides a and b
            assert len(g) >= len(c) and not _dense_divmod(cubic, g, c)[1]
            assert not _dense_divmod(cubic, a, g)[1]
            assert not _dense_divmod(cubic, b, g)[1]

    def test_zero_divisor_rejected(self, qfield):
        with pytest.raises(ZeroDivisionError):
            _dense_divmod(qfield, [(1,)], [(0,)])


class TestOrderAtOne:

    def test_simple_zero_factor(self, qfield):
        t = LaurentPolynomial.t(qfield)
        order, value = order_at_one((t - 1) * (t ** 2 - 5 * t + 1))
        assert order == 1 and value.as_rational() == -3

    def test_no_zero(self, qfield):
        t = LaurentPolynomial.t(qfield)
        order, value = order_at_one(t ** 2 - 4 * t + 1)
        assert order == 0 and value.as_rational() == -2

    def test_triple_zero(self, qfield):
        t = LaurentPolynomial.t(qfield)
        order, value = order_at_one((t - 1) ** 3)
        assert order == 3 and value.as_rational() == 1

    def test_zero_polynomial_rejected(self, qfield):
        with pytest.raises(ValueError):
            order_at_one(LaurentPolynomial.zero(qfield))

    def test_rational_divisor_makes_no_field_multiply(self, ufield,
                                                      monkeypatch):
        # the figure-eight n = 5 numerator; t - 1 has rational coefficients
        t = LaurentPolynomial.t(ufield)
        p = (t - 1) * (t ** 4 - 9 * t ** 3 + 44 * t ** 2 - 9 * t + 1)
        calls = []
        multiply = NumberField._mul

        def counting(self, a, b):
            calls.append(None)
            return multiply(self, a, b)

        monkeypatch.setattr(NumberField, '_mul', counting)
        order, value = order_at_one(p)
        assert (order, value.as_rational()) == (1, 28)
        assert calls == []

    @pytest.mark.parametrize('inputs', ['qfield', 'ufield', 'cubic', 'fig8'])
    def test_factorization_property(self, inputs, request):
        if inputs == 'fig8':
            # odd-n numerators: each has a simple zero at t = 1
            invariants = request.getfixturevalue('fig8_invariants')
            polys = [invariants[n].value.num for n in (3, 5, 7, 9)]
        else:
            field = request.getfixturevalue(inputs)
            rng = random.Random(600)
            t = LaurentPolynomial.t(field)
            polys = []
            for _ in range(30):
                p = random_poly(field, rng)
                if not p.is_zero():
                    polys.append(p * (t - 1) ** rng.randrange(0, 4))
        for q in polys:
            t = LaurentPolynomial.t(q.field)
            order, value = order_at_one(q)
            cofactor, rest = long_division(q.shifted(-q.min_exp),
                                           (t - 1) ** order)
            cofactor = cofactor.shifted(q.min_exp)
            assert rest.is_zero()
            assert cofactor * (t - 1) ** order == q
            assert cofactor.evaluate(1) == value
            assert not value.is_zero()
            assert inputs != 'fig8' or order == 1


class TestEvaluate:

    def test_known_values(self, qfield):
        t = LaurentPolynomial.t(qfield)
        assert (t ** 2 - 4 * t + 1).evaluate(1).as_rational() == -2
        big = t ** 4 - 9 * t ** 3 + 44 * t ** 2 - 9 * t + 1
        assert big.evaluate(1).as_rational() == 28

    def test_negative_exponents(self, qfield):
        p = LaurentPolynomial.t(qfield, -2)
        assert p.evaluate(1).as_rational() == 1
        assert p.evaluate(2).as_rational() == Fraction(1, 4)

    def test_zero_point_rejected(self, qfield):
        t = LaurentPolynomial.t(qfield)
        with pytest.raises(ZeroDivisionError):
            (t + 1).evaluate(0)

    def test_irrational_point_rejected(self, ufield):
        t = LaurentPolynomial.t(ufield)
        with pytest.raises(ValueError, match='element is not rational'):
            (t + 1).evaluate(ufield.generator)

    @pytest.mark.parametrize('field_name', ['qfield', 'cubic'])
    def test_matches_termwise_sum(self, request, field_name, monkeypatch):
        """The value is sum_e c_e x^e; an integral point, given as an int
        or a Fraction, reaches the Horner loop as an int."""
        field = request.getfixturevalue(field_name)
        rng = random.Random(701)
        seen = []
        horner = laurent._dense_eval

        def recording(f, a, x):
            seen.append(type(x))
            return horner(f, a, x)

        monkeypatch.setattr(laurent, '_dense_eval', recording)
        points = (1, -1, 3, Fraction(1), Fraction(-2), Fraction(1, 2),
                  Fraction(-3, 4))
        for at in points:
            for _ in range(6):
                p = random_poly(field, rng, max_den=6)
                want = sum((c * Fraction(at) ** e
                            for e, c in p.coeffs.items()), field.zero)
                assert p.evaluate(at) == want
        assert seen == [int] * 30 + [Fraction] * 12


class TestPrintParse:

    def test_round_trip_exact(self, ufield):
        rng = random.Random(700)
        for _ in range(40):
            coeffs = {}
            for e in range(-3, 4):
                if rng.random() < 0.5:
                    coeffs[e] = ufield.element(
                        [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                         for _ in range(2)])
            p = LaurentPolynomial(ufield, coeffs)
            assert parse_polynomial(ufield, str(p)) == p

    def test_descending_exponents(self, qfield):
        t = LaurentPolynomial.t(qfield)
        assert str(t ** 2 - 4 * t + 1) == '[1]*t^2 + [-4]*t^1 + [1]*t^0'

    def test_zero(self, qfield):
        z = LaurentPolynomial.zero(qfield)
        assert str(z) == '0'
        assert parse_polynomial(qfield, '0').is_zero()


class TestNormalizeUnit:

    def test_splits_unit(self, qfield):
        t = LaurentPolynomial.t(qfield)
        p = (-(t ** 3 - 6 * t ** 2 + 6 * t - 1)).shifted(-3)
        canonical, sign, k = normalize_unit(p)
        assert canonical == t ** 3 - 6 * t ** 2 + 6 * t - 1
        assert sign == -1 and k == -3
        assert canonical.shifted(k) * sign == p

    def test_equal_up_to_unit(self, qfield):
        t = LaurentPolynomial.t(qfield)
        p = t ** 2 - 4 * t + 1
        assert equal_up_to_unit(p, (-p).shifted(5))
        assert not equal_up_to_unit(p, p * (t - 1))
        zero = p - p
        assert equal_up_to_unit(zero, LaurentPolynomial.zero(qfield))
        assert not equal_up_to_unit(zero, p)
        assert not equal_up_to_unit(p, zero)


class TestInterpolation:
    """laurent._newton_interpolate: int tuples, one exact division."""

    @pytest.mark.parametrize('field_name', ['qfield', 'ufield', 'cubic'])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_recovers_integral_polynomial(self, request, field_name, data):
        field = request.getfixturevalue(field_name)
        coordinate = st.integers(-2 ** 40, 2 ** 40)
        poly = data.draw(st.lists(st.tuples(*[coordinate] * field.degree),
                                  max_size=12))
        spare = data.draw(st.integers(0, 3))
        start = data.draw(st.integers(-20, 20))
        # the values past those the degree needs are verification points;
        # with spare = 0 there are none
        degree = max(1, len(poly)) - 1
        points = range(start, start + degree + spare + 1)
        values = [_dense_eval(field, poly, x) for x in points]
        got = _newton_interpolate(start, values, degree)
        assert got == _dense_trim(list(poly))
        assert all(type(c) is int for coeff in got for c in coeff)

    def test_non_integral_interpolant_rejected(self):
        # t (t - 1) / 2 takes the values 1, 0, 0, 1 at -1, 0, 1, 2
        with pytest.raises(ArithmeticError, match='not integral'):
            _newton_interpolate(-1, [(1,), (0,), (0,), (1,)], 2)

    def test_nonzero_top_difference_fails_verification_point(self):
        # 0, 1, 4, 10 at 0..3: the third difference is 1, not 0
        with pytest.raises(ArithmeticError, match='verification point'):
            _newton_interpolate(0, [(0,), (1,), (4,), (10,)], 2)

    def test_every_spare_value_is_checked(self):
        # t^3 at 0..4 against degree 2: the fourth difference is 0, the
        # third is 6
        with pytest.raises(ArithmeticError, match='verification point'):
            _newton_interpolate(0, [(0,), (1,), (8,), (27,), (64,)], 2)
        assert _newton_interpolate(0, [(0,), (1,), (4,), (9,), (16,)],
                                   2) == [(0,), (0,), (1,)]

    def test_empty_polynomial_evaluates_to_int_zero(self, cubic):
        zero = _dense_eval(cubic, [], 3)
        assert zero == (0, 0, 0)
        assert all(type(c) is int for c in zero)
