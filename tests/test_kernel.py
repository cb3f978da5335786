"""Properties of the integral field kernel: NumberField._mul_matrix,
_plan (and the rep.Matrix products on it), _inv_integral, _inv and _det
(Bareiss on the coordinates, whose pivot steps return their pivots'
inverses, _inv_integral's too), the one elimination: over _INTEGERS,
the degree-1 ring, it eliminates laurent's packed ints and the
resultant that screens m.

_det is checked against two oracles: the Leibniz sum, and a test-local
Kronecker substitution (a test-local integer Bareiss, bareiss_det, at
x = 2^B, decoded by the field), which agrees with it on large matrices
too; the oracle given too small a bound leaves digits over, which the
field's decode rejects.  _INTEGERS._det is checked against both on
packed-size ints.
Fields of degree 1 to 9 are covered, so _det's pivot step, generated
once per degree with its products and folds by m, runs at each of them.
The minimal polynomials and embeddings of degree 4 to 9 are those of the
Riley jobs of the two-bridge knots K(9/7), K(11/3), K(13/3), K(15/7),
K(17/5) and K(19/7).  At degree 3, x^3 - 2 has m_1 = m_2 = 0, so the
cubic of K(7/3), with every m_i nonzero, is checked beside it.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from operator import mul
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from twistvol import (LaurentPolynomial, NumberField, PolyMatrix,
                      bundled_job_path, determinant, laurent, load_job,
                      parse_job)
from twistvol import field as field_module
from twistvol.field import _INTEGERS, _digit_shift, _unit
from twistvol.rep import Matrix

from conftest import (K7_3_TEXT, K9_7_FIELD, K11_3_FIELD, K13_3_FIELD,
                      K15_7_FIELD, K17_5_FIELD, K19_7_FIELD, make_ufield)

FIELDS = {
    1: NumberField.rationals(),
    2: make_ufield(),
    3: NumberField([-2, 0, 0, 1], ('1.26', '0')),
    4: NumberField(*K9_7_FIELD),
    5: NumberField(*K11_3_FIELD),
    6: NumberField(*K13_3_FIELD),
    7: NumberField(*K15_7_FIELD),
    8: NumberField(*K17_5_FIELD),
    9: NumberField(*K19_7_FIELD),
}
# every m_i of x^3 - x^2 + 2x - 1 is nonzero, so no fold term of the
# generated step is multiplied away, as m_1 and m_2 are in FIELDS[3]
K7_3 = parse_job(K7_3_TEXT).representation.field

# derandomized: the same examples on every run, no example database
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

fields = st.sampled_from(sorted(FIELDS)).map(FIELDS.get)
coordinates = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))


def int_elements(field):
    return st.tuples(*[coordinates] * field.degree)


def fraction_elements(field):
    return st.tuples(*[st.fractions(min_value=-20, max_value=20,
                                    max_denominator=12)] * field.degree)


def leibniz_det(field, rows):
    """Independent oracle: the sum over permutations."""
    n = len(rows)
    total = (0,) * field.degree
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = (1,) + (0,) * (field.degree - 1)
        for i, j in enumerate(perm):
            term = field._mul(term, rows[i][j])
        total = (field._sub if inversions % 2 else field._add)(total, term)
    return total


def bareiss_det(rows):
    """Independent oracle: the determinant of the first n columns of an
    n-row int matrix, eliminated in place, further columns carried along:
    fraction-free Bareiss, each entry after step k a (k+1) x (k+1) minor,
    so each division by the previous pivot is exact."""
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not rows[k][k]:
            pivot = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        row_k = rows[k]
        akk = row_k[k]
        for i in range(k + 1, n):
            row_i = rows[i]
            aik = row_i[k]
            for j in range(k + 1, len(row_i)):
                row_i[j], remainder = divmod(akk * row_i[j] - aik * row_k[j],
                                             prev)
                assert not remainder
        prev = akk
    return sign * rows[n - 1][n - 1]


def row_norm_bound(rows):
    """prod_i sum_j ||a_ij||_1, which bounds det A's coefficients in Z[x]."""
    bound = 1
    for row in rows:
        bound *= sum(abs(c) for a in row for c in a)
    return bound


def kronecker_det(field, rows, bound=None):
    """Second oracle: each entry a = sum_r c_r x^r becomes the int
    a(2^B), B = _digit_shift(bound) with bound = row_norm_bound by
    default, whose integer Bareiss determinant (bareiss_det), decoded by
    the field into n(d - 1) + 1 balanced digits and folded by m, is
    det A."""
    if bound is None:
        bound = row_norm_bound(rows)
    shift = _digit_shift(bound)
    value = bareiss_det([[sum(c << (shift * r) for r, c in enumerate(a))
                          for a in row] for row in rows])
    return field._decode(value, shift, len(rows) * (field.degree - 1) + 1)


def reference_inverse(field, b):
    """Independent oracle for an inverse: (w, D) with b * w = D on ints.

    bareiss_det on [M_b | e_0], whose elimination carries the extra column
    along, leaves U upper triangular, the column y and the last pivot
    D = +-det M_b.  w = D M_b^-1 e_0, the coordinates of D / b, is
    +-adj(M_b) e_0, integral, so back substitution
    w_i = (D y_i - sum_{j>i} U_ij w_j) / U_ii divides exactly.
    """
    d = field.degree
    rows = [[*r, int(i == 0)] for i, r in enumerate(field._mul_matrix(b))]
    assert bareiss_det(rows)
    denom = rows[d - 1][d - 1]
    w = [0] * d
    for i in range(d - 1, -1, -1):
        row = rows[i]
        acc = denom * row[d] - sum(map(mul, row[i + 1:d], w[i + 1:]))
        w[i], remainder = divmod(acc, row[i])
        assert not remainder
    return tuple(w), denom


def field_det(field, rows):
    """NumberField._det on a copy: it eliminates in place."""
    return field._det([list(row) for row in rows])


def pinned_rows(degree):
    """A fixed 4 x 4 integral matrix, diagonally weighted."""
    return [[tuple((3 * i + 5 * j + 7 * r) % 11 - 5 + (i == j) * 13
                   for r in range(degree))
             for j in range(4)] for i in range(4)]


@st.composite
def square_int_matrices(draw):
    """(field, rows) with n = 1..4, zero entries and forced zero pivots."""
    field = draw(fields)
    n = draw(st.integers(1, 4))
    zero = (0,) * field.degree
    entry = st.one_of(st.just(zero), int_elements(field))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        rows[0][0] = zero  # zero pivot at the first step
    if n >= 3 and draw(st.booleans()):
        # a vanishing leading 2x2 minor: zero pivot after one step
        c = draw(int_elements(field))
        rows[1][0], rows[1][1] = (field._mul(c, rows[0][0]),
                                  field._mul(c, rows[0][1]))
    return field, rows


class TestMulMatrix:

    @PROPERTY
    @given(st.data())
    def test_applied_to_b_is_product(self, data):
        field = data.draw(fields)
        a = data.draw(int_elements(field))
        b = data.draw(int_elements(field))
        m = field._mul_matrix(a)
        assert len(m) == field.degree
        assert tuple(sum(x * y for x, y in zip(row, b)) for row in m) \
            == field._mul(a, b)


class TestPlan:
    """NumberField._plan applied by _add_planned, and the rep.Matrix
    products built on it, against products of NFElements (_mul)."""

    @PROPERTY
    @given(st.data())
    def test_applied_to_a_is_product(self, data):
        field = data.draw(fields)
        d = field.degree
        a = data.draw(st.one_of(int_elements(field), fraction_elements(field)))
        zero = (0,) * d
        rational = st.builds(lambda c: (c,) + zero[1:], coordinates)
        sparse = st.builds(lambda r, c: zero[:r] + (c,) + zero[r + 1:],
                           st.integers(0, d - 1), coordinates)
        b = data.draw(st.one_of(st.just(zero), rational, sparse,
                                int_elements(field),
                                fraction_elements(field)))
        plan = field._plan(b)
        assert all(k for _, _, k in plan) and len(plan) <= d * d
        if not any(b[1:]):
            # a rational b is planned as d diagonal entries, or none
            assert plan == [(r, r, b[0]) for r in range(d) if b[0]]
        out = [0] * d
        assert field_module._add_planned(out, [plan], [a]) \
            == tuple(out) == field._mul(a, b)
        # it adds in place, summing the products of several pairs
        assert field_module._add_planned(out, [plan, plan], [a, a]) \
            == field._scale(field._mul(a, b), 3)

    @pytest.mark.parametrize('degree', sorted(FIELDS))
    def test_matrix_products_match_elements(self, degree):
        field = FIELDS[degree]
        d = field.degree
        rng = random.Random(2700 + degree)

        def entry():
            kind = rng.choice(['zero', 'sparse', 'dense'])
            den = rng.choice([1, 1, 2, 3, 12])
            coords = [Fraction(0)] * d
            if kind == 'sparse':
                coords[rng.randrange(d)] = Fraction(rng.choice([-7, 1, 5]),
                                                    den)
            elif kind == 'dense':
                coords = [Fraction(rng.randint(-2 ** 40, 2 ** 40), den)
                          for _ in range(d)]
            return coords

        def matrix(rows, cols):
            return Matrix(field, [[entry() for _ in range(cols)]
                                  for _ in range(rows)])

        zero = Matrix(field, [[0, 0], [0, 0]])
        cases = [(matrix(2, 2), matrix(2, 2)) for _ in range(6)]
        cases += [(matrix(1, 3), matrix(3, 2)), (matrix(3, 1), matrix(1, 3)),
                  (zero, matrix(2, 2)), (matrix(2, 2), zero)]
        for n in (1, 2, 3, 4):
            m, eye = matrix(n, n), Matrix.identity(field, n)
            cases += [(eye, m), (m, eye), (eye, eye)]
        for a, b in cases:
            want = [[sum((a[i, k] * b[k, j] for k in range(a.ncols)),
                         field.zero) for j in range(b.ncols)]
                    for i in range(a.nrows)]
            got = a * b
            assert got.rows == tuple(map(tuple, want))
            assert got == Matrix(field, want)    # reduced, as constructed
            assert a._times(b._plans()) == got
        assert any(a.scale > 1 for pair in cases for a in pair)

    def test_shape_mismatch_rejected(self):
        field = FIELDS[3]
        with pytest.raises(ValueError, match='shape'):
            Matrix.identity(field, 2) * Matrix.identity(field, 3)


class TestInverse:

    @PROPERTY
    @given(st.data())
    def test_times_inverse_is_one(self, data):
        field = data.draw(fields)
        a = data.draw(fraction_elements(field))
        assume(any(a) and any(c.denominator > 1 for c in a))
        inv = field._inv(a)
        assert all(type(c) is Fraction for c in inv)
        assert field._mul(a, inv) == field._one

    @PROPERTY
    @given(st.data())
    def test_integral_input(self, data):
        field = data.draw(fields)
        a = data.draw(int_elements(field))
        assume(any(a))
        assert field._mul(a, field._inv(a)) == field._one

    @PROPERTY
    @given(st.data())
    def test_integral_inverse_times_b_is_d(self, data):
        field = data.draw(fields)
        b = data.draw(int_elements(field))
        assume(any(b))
        w, denom = field._inv_integral(b)
        assert all(type(c) is int for c in w + (denom,)) and denom
        assert field._mul(b, w) == (denom,) + (0,) * (field.degree - 1)

    @pytest.mark.parametrize('degree', sorted(FIELDS))
    def test_zero_raises(self, degree):
        field = FIELDS[degree]
        with pytest.raises(ZeroDivisionError, match='division by zero'):
            field._inv((Fraction(0),) * degree)
        with pytest.raises(ZeroDivisionError, match='division by zero'):
            field._inv_integral((0,) * degree)

    def test_zero_divisor_raises(self):
        # (x^2 + 1)(x^2 + 2) passes the squarefree and integer-root
        # screens, and x^2 + 1 divides zero in Q[x]/(m)
        field = NumberField([2, 0, 3, 0, 1], ('0', '1'))
        with pytest.raises(ZeroDivisionError, match='zero divisor'):
            field._inv((Fraction(1), 0, Fraction(1), 0))
        with pytest.raises(ZeroDivisionError, match='zero divisor'):
            field._inv_integral((1, 0, 1, 0))


def at_every_degree(test):
    """test, given also the pinned 4 x 4 matrix at each degree of FIELDS
    and over K7_3."""
    for field in [*FIELDS.values(), K7_3]:
        test = example((field, pinned_rows(field.degree)))(test)
    return test


class TestDet:

    @PROPERTY
    @given(square_int_matrices())
    @at_every_degree
    def test_matches_leibniz(self, case):
        field, rows = case
        expected = leibniz_det(field, rows)
        got = field_det(field, rows)
        assert got == expected
        assert all(type(c) is int for c in got)
        assert kronecker_det(field, rows) == expected

    @pytest.mark.parametrize('side', ['packed', 'coords'])
    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_paths_agree_on_both_sides_of_the_rule(self, side, data):
        """_det equals the Kronecker oracle on 6..9 rows at degrees 2, 3
        and 8, on both sides of laurent's pack-once rule, read for a
        matrix constant in t: small coordinates fall on the packed side,
        40-bit ones on the coordinate side."""
        degree = data.draw(st.sampled_from([2, 3, 8]))
        field = FIELDS[degree]
        zero = (0,) * degree
        if side == 'packed':
            n = data.draw(st.integers(6, 9))
            entry = st.one_of(st.just(zero), st.tuples(
                *[st.integers(-3, 3)] * degree))
        else:
            # |coordinate| >= 2^39: bits(bound) > n (39 + log2(n d)),
            # past the limit, 990, from 6 rows (d = 2 draws from 7, as
            # when its limit was 1100)
            n = data.draw(st.integers(7 if degree == 2 else 6, 9))
            big = st.integers(2 ** 39, 2 ** 40) | st.integers(-2 ** 40,
                                                             -2 ** 39)
            entry = st.tuples(*[big] * degree)
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        if data.draw(st.booleans()):
            rows[0][0] = zero  # zero pivot at the first step
        assert ((n * row_norm_bound(rows).bit_length()
                 <= laurent._PACK_ONCE_BITS)
                == (side == 'packed'))
        assert field_det(field, rows) == kronecker_det(field, rows)

    @pytest.mark.parametrize('key', [*FIELDS, 'k7_3'])
    def test_wrong_pivot_inverse_is_caught(self, key, monkeypatch):
        """A perturbed p^-1, as the pivot step returns it for the next
        step, makes that step inexact: ArithmeticError, no value."""
        field = K7_3 if key == 'k7_3' else FIELDS[key]
        rows = pinned_rows(field.degree)
        assert field_det(field, rows) == leibniz_det(field, rows)
        exact_row_step = field_module._row_step

        def perturbed_row_step(d):
            step = exact_row_step(d)

            def perturbed(*args):
                # w / D + 1/7 in coordinate 0: (7 w + D e_0) / (7 D)
                w, denom = step(*args)
                return ((7 * w[0] + denom,) + tuple(7 * c for c in w[1:]),
                        7 * denom)
            return perturbed

        monkeypatch.setattr(field_module, '_row_step', perturbed_row_step)
        with pytest.raises(ArithmeticError, match='non-integral'):
            field_det(field, rows)

    def test_inexact_packed_step_is_caught(self):
        """A non-integral entry makes a division of the degree-1 ring's
        Bareiss step, the one laurent's packed ints run, inexact."""
        def rows(corner):
            return [[(2,), (1,), (1,)], [(1,), (1,), (0,)],
                    [(1,), (0,), (corner,)]]
        assert _INTEGERS._det(rows(2)) == (1,)
        with pytest.raises(ArithmeticError, match='non-integral'):
            _INTEGERS._det(rows(Fraction(3, 4)))

    def test_integers_match_oracles_on_packed_sizes(self):
        """_INTEGERS._det, on 1-tuples of 200..2000 bits as packing makes
        them, equals bareiss_det on 2..9 rows and leibniz_det on 2..7,
        with zero pivots forced at the first and a later step, and is 0
        on a singular matrix."""
        rng = random.Random(3200)
        cases = []
        for n in range(2, 10):
            for trial in range(3):
                bits = rng.randint(200, 2000)
                rows = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)]
                        for _ in range(n)]
                if trial == 1:
                    rows[0][0] = 0
                elif trial == 2 and n >= 3:
                    # a vanishing leading 2 x 2 minor
                    c = rng.randint(-2 ** 40, 2 ** 40)
                    rows[1][:2] = [c * x for x in rows[0][:2]]
                cases.append((rows, False))
            singular = [row[:] for row in rows]
            # the last row 3 r_0 - r_(n-2): 2 r_0 at n = 2
            singular[-1] = [3 * x - y
                            for x, y in zip(singular[0], singular[-2])]
            cases.append((singular, True))
        for rows, singular in cases:
            packed = [[(x,) for x in row] for row in rows]
            got = _INTEGERS._det([row[:] for row in packed])
            assert got == (bareiss_det([row[:] for row in rows]),)
            assert (got == (0,)) == singular
            if len(rows) <= 7:
                assert got == leibniz_det(FIELDS[1], packed)

    # at d >= 3 a short shift can decode into in-range digits, which only
    # a verification point catches; at these degrees the pinned rows
    # leave digits over at bound 1
    @pytest.mark.parametrize('degree', [1, 2, 3, 4, 8])
    def test_too_small_bound_is_caught(self, degree):
        """Digits left beyond degree n(d - 1): ArithmeticError, no value."""
        field = FIELDS[degree]
        rows = pinned_rows(degree)
        assert kronecker_det(field, rows) == leibniz_det(field, rows)
        with pytest.raises(ArithmeticError, match='coefficient bound'):
            kronecker_det(field, rows, 1)


def pivot_inverse(field, b):
    """(w, D) for the pivot b, as _det's generated pivot step returns it
    for the next step: a 1 x 1 matrix has no row to update."""
    step = field_module._row_step(field.degree)
    return step([[b]], 0, _unit(field, 1), 1, field.min_poly, field._traces)


class TestPivotInverse:
    """The inverse each pivot step returns, from the characteristic
    polynomial of M_b: b * w = D = +-det M_b, the ratio w / D that the
    augmented-Bareiss oracle (reference_inverse) gives."""

    @pytest.mark.parametrize('key', [*FIELDS, 'k7_3'])
    def test_pivot_times_w_is_d(self, key):
        field = K7_3 if key == 'k7_3' else FIELDS[key]
        d = field.degree
        rng = random.Random(key if key == 'k7_3' else 2800 + key)
        cases = [_unit(field, 1), _unit(field, -3)]
        if d > 1:
            cases.append(_unit(field, 0)[:1] + (1,) + _unit(field, 0)[2:])
        for bits in (3, 40, 200):
            for _ in range(4):
                b = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(d)]
                # constant coordinate 0 makes reference_inverse swap rows
                cases += [tuple(b), (0, *b[1:])] if d > 1 else [tuple(b)]
        for b in cases:
            if not any(b):
                continue
            w, denom = pivot_inverse(field, b)
            assert all(type(c) is int for c in w + (denom,))
            assert field._mul(b, w) == _unit(field, denom)
            assert denom == (-1) ** (d + 1) * bareiss_det(
                [list(row) for row in field._mul_matrix(b)])
            w_ref, denom_ref = reference_inverse(field, b)
            assert field._scale(w, denom_ref) == field._scale(w_ref, denom)


class TestDetZeroDivisor:
    """Over (x^2 + 1)(x^2 + 2), which passes the squarefree and
    integer-root screens, a pivot x^2 + 1 divides zero: its step returns
    D = 0, and _det raises only when a later step needs that inverse."""

    field = NumberField([2, 0, 3, 0, 1], ('0', '1'))
    zero_divisor = (1, 0, 1, 0)

    def test_last_pivot_needs_no_inverse(self):
        rows = [[self.zero_divisor, (2, 1, 0, -1)],
                [(0, 3, 1, 1), (5, 0, -2, 1)]]
        assert pivot_inverse(self.field, self.zero_divisor)[1] == 0
        assert field_det(self.field, rows) == leibniz_det(self.field, rows)

    def test_inner_pivot_raises(self):
        rows = [[self.zero_divisor, (2, 1, 0, -1), (1, 1, 0, 0)],
                [(0, 3, 1, 1), (5, 0, -2, 1), (0, 0, 1, 0)],
                [(1, 0, 0, 2), (0, 1, 0, 0), (3, 0, 0, 1)]]
        with pytest.raises(ZeroDivisionError,
                           match='^element is a zero divisor; minimal '
                                 'polynomial is not irreducible$'):
            field_det(self.field, rows)

    def test_vanishing_column_after_it_is_zero(self):
        # rows 1 and 2 are multiples of row 0 in columns 0 and 1, so column
        # 1 vanishes below the diagonal after one step: det 0, no inverse
        a, c = (2, 1, 0, -1), (1, 1, 0, 0)
        k, m = (0, 3, 1, 1), (1, 0, 0, 2)
        mul = self.field._mul
        rows = [[self.zero_divisor, a, c],
                [mul(k, self.zero_divisor), mul(k, a), (0, 0, 1, 0)],
                [mul(m, self.zero_divisor), mul(m, a), (3, 0, 0, 1)]]
        assert field_det(self.field, rows) == (0,) * 4
        assert leibniz_det(self.field, rows) == (0,) * 4


class TestDetCost:
    """Fraction stays off the elimination, pivot inverses included."""

    @pytest.mark.parametrize('degree', sorted(FIELDS))
    def test_fraction_constructions_bounded(self, degree, monkeypatch):
        field = FIELDS[degree]
        n = 6
        rows = [[tuple((5 * i + 3 * j + 2 * r) % 13 - 6 + (i == j) * 17
                       for r in range(degree))
                 for j in range(n)] for i in range(n)]
        expected = leibniz_det(field, rows)
        calls = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(None)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, '__new__', staticmethod(counting))
        got = field_det(field, rows)
        monkeypatch.undo()
        assert got == expected
        assert len(calls) == 0


def reference_decode(field, value, shift, size):
    """The digit-by-digit decode: balanced digits lowest first, digits
    left over an error, then the remainder of their polynomial by m."""
    half = 1 << (shift - 1)
    digits = []
    for _ in range(size):
        digit = (value + half) % (1 << shift) - half
        digits.append(digit)
        value = (value - digit) >> shift
    if value:
        raise ArithmeticError('packed value has digits beyond degree %d; '
                              'the coefficient bound is wrong' % (size - 1))
    m, d = field.min_poly, field.degree
    while len(digits) > d:
        top = digits.pop()
        for i in range(d):
            digits[len(digits) - d + i] -= top * m[i]
    return tuple(digits)


class TestDecode:
    """The decode generated per field degree against the digit loop."""

    @pytest.mark.parametrize('key', [*FIELDS, 'k7_3'])
    def test_matches_reference_decode(self, key):
        field = K7_3 if key == 'k7_3' else FIELDS[key]
        rng = random.Random(key if key == 'k7_3' else 40 + key)
        for size in range(field.degree, 41):
            for shift in (1, 2, 5, 31, 64, 97):
                half = 1 << (shift - 1)
                # the extreme digits, and a random one
                digits = [rng.choice((-half, half - 1,
                                      rng.randrange(-half, half)))
                          for _ in range(size)]
                value = sum(c << (shift * k) for k, c in enumerate(digits))
                want = reference_decode(field, value, shift, size)
                assert field._decode(value, shift, size) == want
                # one past either end of the range needs another digit
                ones = ((1 << (shift * size)) - 1) // ((1 << shift) - 1)
                for past in (-half * ones - 1, (half - 1) * ones + 1):
                    with pytest.raises(ArithmeticError) as expected:
                        reference_decode(field, past, shift, size)
                    with pytest.raises(ArithmeticError) as got:
                        field._decode(past, shift, size)
                    assert str(got.value) == str(expected.value)


def test_loading_generates_no_kernel(monkeypatch, tmp_path):
    """load_job builds no decode and only the degree-1 pivot step, which
    the Sylvester resultant of the screen of m runs, in this process,
    with both caches emptied first; the first decode of a degree builds
    its own."""
    monkeypatch.setattr(field_module, '_ROW_STEPS', {})
    monkeypatch.setattr(field_module, '_DECODERS', {})
    riley = tmp_path / 'k7_3.job'
    riley.write_text(K7_3_TEXT, encoding='utf-8')
    load_job(str(bundled_job_path('figure-eight')))
    job = load_job(str(riley))
    assert sorted(field_module._ROW_STEPS) == [1]
    assert field_module._DECODERS == {}
    job.representation.field._decode(5, 4, 3)
    assert sorted(field_module._DECODERS) == [3]


def test_loading_builds_no_row_step(tmp_path):
    """_det's row update is built at the first _det of a degree, so
    importing twistvol and loading the bundled job and a Riley job
    builds only the degree-1 one, for the resultant that screens m: a
    fresh process shows no other in the cache until then."""
    riley = tmp_path / 'k7_3.job'
    riley.write_text(K7_3_TEXT, encoding='utf-8')
    src = str(Path(__file__).resolve().parents[1] / 'src')
    path = os.environ.get('PYTHONPATH')
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ''))
    code = ('import sys\n'
            'from twistvol import bundled_job_path, load_job\n'
            'from twistvol.field import _ROW_STEPS\n'
            'load_job(str(bundled_job_path("figure-eight")))\n'
            'job = load_job(sys.argv[1])\n'
            'print(sorted(_ROW_STEPS))\n'
            'job.representation.field._det([[(1, 0, 0)]])\n'
            'print(sorted(_ROW_STEPS))\n')
    proc = subprocess.run([sys.executable, '-c', code, str(riley)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == '[1]\n[1, 3]\n'


def test_loading_inverts_sl2_images_by_adjugate(monkeypatch):
    """load_job inverts the generator images of the figure-eight and of
    every bench job, all in SL(2), by their adjugates: no field inverse
    runs, and each stored inverse factor times its image is the
    identity, in both orders."""
    calls = []
    for name in ('_inv', '_inv_integral'):
        def counting(self, a, exact=getattr(NumberField, name), name=name):
            calls.append(name)
            return exact(self, a)
        monkeypatch.setattr(NumberField, name, counting)
    bench_jobs = sorted((Path(__file__).resolve().parents[1] / 'bench'
                         / 'jobs').glob('*.job'))
    assert bench_jobs
    for path in [bundled_job_path('figure-eight'), *bench_jobs]:
        rep = load_job(str(path)).representation
        assert calls == [], path.name
        eye = Matrix.identity(rep.field, 2)
        for image, (inverse, _) in zip(rep.images, rep._inverse_factors):
            assert inverse * image == eye and image * inverse == eye


def test_every_determinant_runs_the_row_step(monkeypatch):
    """Each determinant and inverse runs _det's generated pivot step,
    seen by wrapping field._row_step and laurent's interpolation: the
    pack-once nodes and, after the interpolation, their check at t = -2
    at degree 1, the coordinate nodes at the field's degree, the
    Sylvester resultant that screens m at degree 1, and Matrix.det and
    _inv_integral at the field's degree."""
    calls = []
    build, interpolate = field_module._row_step, laurent._newton_interpolate

    def recording_step(d):
        calls.append(d)
        return build(d)

    def recording_interpolate(*args):
        calls.append('interpolate')
        return interpolate(*args)

    monkeypatch.setattr(field_module, '_row_step', recording_step)
    monkeypatch.setattr(laurent, '_newton_interpolate', recording_interpolate)
    field = FIELDS[2]
    t = LaurentPolynomial.t(field)
    u = LaurentPolynomial.constant(field, field.generator)
    # not triangular; t-degree bound D = 3
    m = PolyMatrix(field, [[3 * t + 5, t, u], [2, 7 * t - u, t],
                           [1, u, 2 * t]])
    want = determinant(m)
    assert calls == [1] * 4 + ['interpolate', 1]
    del calls[:]
    monkeypatch.setattr(laurent, '_PACK_ONCE_BITS', -1)
    assert determinant(m) == want
    assert calls == [2] * 5 + ['interpolate']
    del calls[:]
    NumberField(K7_3.min_poly, K7_3.embedding_hint)
    assert calls == [1]
    del calls[:]
    assert Matrix(field, [[1, [0, 1]], [[2, 1], 3]]).det() \
        == field.element([4, -1])    # 3 - x (2 + x), x^2 = -1 - x
    field._inv_integral((1, 1))
    assert calls == [2, 2]
