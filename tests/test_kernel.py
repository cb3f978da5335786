"""Properties of the integral field kernel: NumberField._mul_matrix,
_inv_integral, _inv, _det (Bareiss on the coordinates) and _bareiss.

_det is checked against two oracles: the Leibniz sum, and a test-local
Kronecker substitution (integer Bareiss at x = 2^B, decoded by the
field), which agrees with it on large matrices too; the oracle given
too small a bound leaves digits over, which the field's decode rejects.  Fields of degree 1, 2, 3, 4 and 8 are covered.  The degree-4
and degree-8 minimal polynomials and embeddings are those of the Riley
jobs of the two-bridge knots K(9/7) and K(17/5).
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from twistvol import NumberField, laurent
from twistvol.field import _bareiss, _digit_shift

from conftest import K9_7_FIELD, K17_5_FIELD, make_ufield

FIELDS = {
    1: NumberField.rationals(),
    2: make_ufield(),
    3: NumberField([-2, 0, 0, 1], ('1.26', '0')),
    4: NumberField(*K9_7_FIELD),
    8: NumberField(*K17_5_FIELD),
}

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


def row_norm_bound(rows):
    """prod_i sum_j ||a_ij||_1, which bounds det A's coefficients in Z[x]."""
    bound = 1
    for row in rows:
        bound *= sum(abs(c) for a in row for c in a)
    return bound


def kronecker_det(field, rows, bound=None):
    """Second oracle: each entry a = sum_r c_r x^r becomes the int
    a(2^B), B = _digit_shift(bound) with bound = row_norm_bound by
    default, whose integer Bareiss determinant, decoded by the field into
    n(d - 1) + 1 balanced digits and folded by m, is det A."""
    if bound is None:
        bound = row_norm_bound(rows)
    shift = _digit_shift(bound)
    value = _bareiss([[sum(c << (shift * r) for r, c in enumerate(a))
                       for a in row] for row in rows])
    return field._decode(value, shift, len(rows) * (field.degree - 1) + 1)


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


class TestDet:

    @PROPERTY
    @given(square_int_matrices())
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
            # past 1400 from 6 rows at d >= 3, past 2000 from 7 at d = 2
            n = data.draw(st.integers(7 if degree == 2 else 6, 9))
            big = st.integers(2 ** 39, 2 ** 40) | st.integers(-2 ** 40,
                                                             -2 ** 39)
            entry = st.tuples(*[big] * degree)
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        if data.draw(st.booleans()):
            rows[0][0] = zero  # zero pivot at the first step
        limit = laurent._PACK_ONCE_BITS[min(degree, 4)]
        assert ((n * row_norm_bound(rows).bit_length() <= limit)
                == (side == 'packed'))
        assert field_det(field, rows) == kronecker_det(field, rows)

    @pytest.mark.parametrize('degree', [1, 2, 3, 8])
    def test_wrong_pivot_inverse_is_caught(self, degree, monkeypatch):
        """A perturbed p^-1 makes a step inexact: ArithmeticError, no value."""
        field = FIELDS[degree]
        rows = pinned_rows(degree)
        assert field_det(field, rows) == leibniz_det(field, rows)
        exact_inv = field._inv_integral

        def perturbed(b):
            # w / D + 1/7 in coordinate 0: (7 w + D e_0) / (7 D)
            w, denom = exact_inv(b)
            return ((7 * w[0] + denom,) + tuple(7 * c for c in w[1:]),
                    7 * denom)

        monkeypatch.setattr(field, '_inv_integral', perturbed)
        with pytest.raises(ArithmeticError, match='non-integral'):
            field_det(field, rows)

    def test_inexact_packed_step_is_caught(self):
        """A non-integral entry makes an integer Bareiss division inexact."""
        assert _bareiss([[2, 1, 1], [1, 1, 0], [1, 0, 2]]) == 1
        with pytest.raises(ArithmeticError, match='non-integral'):
            _bareiss([[2, 1, 1], [1, 1, 0], [1, 0, Fraction(3, 4)]])

    @pytest.mark.parametrize('degree', sorted(FIELDS))
    def test_too_small_bound_is_caught(self, degree):
        """Digits left beyond degree n(d - 1): ArithmeticError, no value."""
        field = FIELDS[degree]
        rows = pinned_rows(degree)
        assert kronecker_det(field, rows) == leibniz_det(field, rows)
        with pytest.raises(ArithmeticError, match='coefficient bound'):
            kronecker_det(field, rows, 1)


class TestDetCost:
    """Fraction stays off the elimination, pivot inverses included."""

    @pytest.mark.parametrize('degree', [3, 8])
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
