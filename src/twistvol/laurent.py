"""Exact Laurent polynomials in t over a number field, and matrices of them.

A determinant first expands exactly along every row with at most one
nonzero entry, so a triangular matrix, upper or lower, costs one
Laurent multiply per row and never reaches the kernel; a zero row gives
0.  What remains is computed by evaluation and interpolation:
each row is shifted to ordinary-polynomial form and scaled to integral
coefficients, the matrix is evaluated at D+1 integer points 0, 1, -1,
2, -2, ... for a certified degree bound D, the field's integral
kernel (NumberField._det) runs on Python ints at each point, as one
packed integer Bareiss at x = 2^B for a small matrix or on the field
coordinates for a large one (its choice, by size), and the
int values are interpolated with the one common denominator D!,
divided out exactly; the row scales, the factored-out power of t and
the expansion factor are restored at the end.  One extra evaluation
point cross-checks the interpolated result.  Every evaluation, at those
points and in LaurentPolynomial.evaluate, goes through one Horner
function, _dense_eval.  Division with remainder and Euclid's algorithm
come from the field module (_dense_divmod, _dense_gcd): gcd, exact
division, the order at t = 1 and the reduction of a RationalFunction,
which divides once and runs Euclid only on a nonzero remainder, all
use them.
"""

import re
from fractions import Fraction

from .field import (NFElement, _dense_divmod, _dense_gcd, _dense_trim,
                    _denominator, _exact_quotient, _integral, _rational)


class LaurentPolynomial:
    """A finite sum of c_k * t^k with exact number-field coefficients.

    Stored as a map exponent -> coefficient holding no zero entries;
    the zero polynomial is the empty map.
    """

    __slots__ = ('field', 'coeffs')

    def __init__(self, field, coeffs=None):
        self.field = field
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(c, NFElement):
                    c = field.element(c)
                if not c.is_zero():
                    clean[e] = c
        self.coeffs = clean

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def constant(cls, field, c):
        return cls(field, {0: field.element(c)})

    @classmethod
    def one(cls, field):
        return cls.constant(field, 1)

    @classmethod
    def t(cls, field, exponent=1, coefficient=1):
        return cls(field, {exponent: field.element(coefficient)})

    def is_zero(self):
        return not self.coeffs

    @property
    def min_exp(self):
        if not self.coeffs:
            raise ValueError('zero polynomial has no exponents')
        return min(self.coeffs)

    @property
    def max_exp(self):
        if not self.coeffs:
            raise ValueError('zero polynomial has no exponents')
        return max(self.coeffs)

    def coefficient(self, exponent):
        return self.coeffs.get(exponent, self.field.zero)

    def _coerce(self, other):
        if isinstance(other, LaurentPolynomial):
            self.field._check_same(other.field)
            return other
        if isinstance(other, (int, Fraction, NFElement)):
            return LaurentPolynomial.constant(self.field, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        out = {e: c.coeffs for e, c in self.coeffs.items()}
        for e, c in other.coeffs.items():
            if e in out:
                s = f._add(out[e], c.coeffs)
                if any(s):
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c.coeffs
        return _wrap(f, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(self.field,
                                 {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        out = {}
        for e1, c1 in self.coeffs.items():
            r1 = c1.coeffs
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                prod = f._mul(r1, c2.coeffs)
                if e in out:
                    out[e] = f._add(out[e], prod)
                else:
                    out[e] = prod
        return _wrap(f, {e: c for e, c in out.items() if any(c)})

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError('negative powers of polynomials are not defined')
        acc = LaurentPolynomial.one(self.field)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def shifted(self, k):
        """This polynomial times t^k."""
        return LaurentPolynomial(self.field,
                                 {e + k: c for e, c in self.coeffs.items()})

    def evaluate(self, at):
        """Exact value at a nonzero field element."""
        f = self.field
        if not isinstance(at, NFElement):
            at = f.element(at)
        if at.is_zero():
            raise ZeroDivisionError('Laurent polynomials are evaluated at '
                                    'nonzero points only')
        dense, lo = self._dense()
        x = at.coeffs
        acc = _dense_eval(f, dense, x)
        if lo > 0:
            acc = f._mul(acc, f._pow(x, lo))
        elif lo < 0:
            acc = f._mul(acc, f._pow(f._inv(x), -lo))
        return NFElement(f, acc)

    def _dense(self):
        """(ascending raw coefficient list, lowest exponent); zero -> ([], 0)."""
        if not self.coeffs:
            return [], 0
        lo, hi = self.min_exp, self.max_exp
        f = self.field
        dense = [f._zero] * (hi - lo + 1)
        for e, c in self.coeffs.items():
            dense[e - lo] = c.coeffs
        return dense, lo

    def __str__(self):
        if not self.coeffs:
            return '0'
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            parts.append('%s*t^%d' % (self.coeffs[e], e))
        return ' + '.join(parts)

    __repr__ = __str__


def _wrap(field, raw_coeffs):
    p = LaurentPolynomial.__new__(LaurentPolynomial)
    p.field = field
    p.coeffs = {e: NFElement(field, c) for e, c in raw_coeffs.items()}
    return p


_TERM_RE = re.compile(r'^\[([^\]]*)\]\*t\^(-?\d+)$')


def parse_polynomial(field, text):
    """Parse the print format back into a polynomial (exact round-trip)."""
    text = text.strip()
    if text == '0':
        return LaurentPolynomial.zero(field)
    coeffs = {}
    for part in text.split(' + '):
        m = _TERM_RE.match(part.strip())
        if m is None:
            raise ValueError('bad polynomial term %r' % (part,))
        vec = [Fraction(s) for s in m.group(1).split(',')]
        e = int(m.group(2))
        if e in coeffs:
            raise ValueError('duplicate exponent %d' % e)
        coeffs[e] = field.element(vec)
    return LaurentPolynomial(field, coeffs)


# ----- ordinary-polynomial helpers on dense raw-coefficient lists -----

def _dense_eval(field, a, x):
    """Value of the dense ascending list a at x by Horner's rule.

    x is a raw element, or an int or Fraction scalar; at a scalar each
    step is coordinate-wise (acc * x + c), never a field multiply, so
    int coefficients at an int point give int coordinates.
    """
    if not a:
        return field._zero
    acc = a[-1]
    if isinstance(x, tuple):
        for c in a[-2::-1]:
            acc = field._add(field._mul(acc, x), c)
    else:
        for c in a[-2::-1]:
            acc = tuple(u * x + v for u, v in zip(acc, c))
    return acc


def gcd(p, q):
    """Monic GCD with lowest exponent 0; divides both inputs exactly."""
    p.field._check_same(q.field)
    field = p.field
    if p.is_zero() and q.is_zero():
        raise ValueError('gcd(0, 0) is undefined')
    a = _dense_gcd(field, p._dense()[0], q._dense()[0])
    lead_inv = field._inv(a[-1])
    a = [field._mul(c, lead_inv) for c in a]
    lo = next(i for i, c in enumerate(a) if any(c))
    return _wrap(field, {i - lo: c for i, c in enumerate(a) if any(c)})


def divide_exact(p, q):
    """p / q when q divides p exactly in the Laurent ring; errors otherwise."""
    p.field._check_same(q.field)
    field = p.field
    if q.is_zero():
        raise ZeroDivisionError('division by the zero polynomial')
    ap, lop = p._dense()
    aq, loq = q._dense()
    quo, rem = _dense_divmod(field, ap, aq)
    if rem:
        raise ValueError('polynomial division is not exact')
    return _wrap(field, {i + lop - loq: c for i, c in enumerate(quo) if any(c)})


def order_at_one(p):
    """Largest k with (t-1)^k dividing p, and the cofactor's value at 1.

    Divides by t - 1 while the remainder, the value at 1, is zero; the
    returned value (p / (t-1)^k)(1) is nonzero.
    """
    if p.is_zero():
        raise ValueError('order at t=1 of the zero polynomial is undefined')
    field = p.field
    dense, _ = p._dense()
    t_minus_one = [field._neg(field._one), field._one]
    order = 0
    while True:
        quot, rem = _dense_divmod(field, dense, t_minus_one)
        if rem:
            return order, NFElement(field, rem[0])
        dense = quot
        order += 1


def normalize_unit(p):
    """Split p as sign * t^k * canonical with a deterministic canonical part.

    The canonical representative has lowest exponent 0 and a leading
    (highest-degree) coefficient whose first nonzero rational coordinate
    is positive.  Returns (canonical, sign, k).
    """
    if p.is_zero():
        return p, 1, 0
    k = p.min_exp
    lead = p.coeffs[p.max_exp].coeffs
    first = next(c for c in lead if c)
    sign = 1 if first > 0 else -1
    canonical = LaurentPolynomial(
        p.field, {e - k: (c if sign == 1 else -c) for e, c in p.coeffs.items()})
    return canonical, sign, k


def equal_up_to_unit(p, q):
    """Whether p = (+/- t^k) q for some integer k."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    cp, _, _ = normalize_unit(p)
    cq, _, _ = normalize_unit(q)
    return cp == cq or cp == -cq


class RationalFunction:
    """A reduced quotient of Laurent polynomials.

    The denominator is made monic with lowest exponent 0 and the
    numerator carries the residual unit; the denominator is never zero.
    Construction divides num by den once, on dense lists (_dense_divmod):
    a zero remainder leaves quotient / 1 with no gcd at all; otherwise
    Euclid goes on from (den, remainder), since gcd(num, den) =
    gcd(den, remainder), and both are divided by that gcd.
    """

    __slots__ = ('num', 'den')

    def __init__(self, num, den):
        num.field._check_same(den.field)
        if den.is_zero():
            raise ZeroDivisionError('rational function with zero denominator')
        field = num.field
        a, num_lo = num._dense()
        b, den_lo = den._dense()
        quo, rem = _dense_divmod(field, a, b)
        if rem:
            g = _dense_gcd(field, b, rem)
            quo = _dense_divmod(field, a, g)[0]
            b = _dense_divmod(field, b, g)[0]
        else:
            b = [field._one]
        if b[-1] != field._one:
            # a monic denominator: the same unit multiplies the numerator
            lead_inv = field._inv(b[-1])
            b = [field._mul(c, lead_inv) for c in b]
            quo = [field._mul(c, lead_inv) for c in quo]
        self.den = _wrap(field, {i: c for i, c in enumerate(b) if any(c)})
        self.num = _wrap(field, {i + num_lo - den_lo: c
                                 for i, c in enumerate(quo) if any(c)})

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den == LaurentPolynomial.one(self.field)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return '(%s) / (%s)' % (self.num, self.den)

    __repr__ = __str__


def reduce(num, den):
    """Reduced rational function num/den (see RationalFunction)."""
    return RationalFunction(num, den)


class PolyMatrix:
    """A rectangular matrix of Laurent polynomials."""

    __slots__ = ('field', 'entries')

    def __init__(self, field, entries):
        rows = []
        for row in entries:
            out = []
            for e in row:
                if not isinstance(e, LaurentPolynomial):
                    e = LaurentPolynomial.constant(field, e)
                field._check_same(e.field)
                out.append(e)
            rows.append(tuple(out))
        self.field = field
        self.entries = tuple(rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError('ragged polynomial matrix')

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.entries == other.entries

    def drop_columns(self, start, width):
        """Remove `width` consecutive columns beginning at `start`."""
        keep = [j for j in range(self.ncols) if not start <= j < start + width]
        return PolyMatrix(self.field,
                          [[row[j] for j in keep] for row in self.entries])

    def __repr__(self):
        return '<PolyMatrix %dx%d>' % (self.nrows, self.ncols)


def _newton_interpolate(field, points, values):
    """Dense ascending int coefficients of the interpolant of int values.

    The n points are distinct integers forming a run of consecutive
    integers, in any order.  In ascending order the Newton coefficients
    are the forward differences of the values over k!, so the Newton
    form is expanded on ints with the one common denominator (n-1)! and
    divided by it exactly at the end.  The interpolant of an integral
    determinant is integral: a remainder raises ArithmeticError.
    """
    pairs = sorted(zip(points, values))
    n = len(pairs)
    xs = [x for x, _ in pairs]
    if xs != list(range(xs[0], xs[0] + n)):
        raise ValueError('interpolation points must be consecutive integers')
    diffs = [v for _, v in pairs]
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            diffs[i] = field._sub(diffs[i], diffs[i - 1])
    # poly <- poly * (t - x_k) + diffs[k] * (n-1)!/k!, for k = n-2 .. 0
    poly = [diffs[n - 1]]
    weight = 1
    for k in range(n - 2, -1, -1):
        x = xs[k]
        weight *= k + 1
        poly = ([tuple(weight * u - x * v for u, v in zip(diffs[k], poly[0]))]
                + [tuple(u - x * v for u, v in zip(lower, higher))
                   for lower, higher in zip(poly, poly[1:])]
                + [poly[-1]])
    try:
        return _dense_trim([_exact_quotient(c, weight) for c in poly])
    except ArithmeticError:
        raise ArithmeticError('determinant interpolant is not integral; '
                              'an evaluation is wrong') from None


def _expand_singletons(field, rows):
    """(factor, rest) with det(rows) = factor * det(rest), exactly.

    While some row has at most one nonzero entry a_ij, expands along
    it: the factor picks up (-1)^(i+j) a_ij, and row i and column j are
    dropped.  Every triangular matrix, upper or lower, keeps such a row
    until nothing is left.  rest has no such row; a zero row makes the
    factor zero.
    """
    factor = LaurentPolynomial.one(field)
    rows = [list(row) for row in rows]
    while rows:
        for i, row in enumerate(rows):
            nonzero = [j for j, p in enumerate(row) if not p.is_zero()]
            if len(nonzero) <= 1:
                break
        else:
            break
        if not nonzero:
            return LaurentPolynomial.zero(field), []
        j = nonzero[0]
        entry = row[j]
        factor = factor * (entry if (i + j) % 2 == 0 else -entry)
        rows = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
    return factor, rows


def determinant(matrix):
    """Exact determinant of a square PolyMatrix.

    Rows with at most one nonzero entry are expanded exactly first
    (_expand_singletons), so a triangular matrix such as
    t^a sigma_n(A) - I for a triangular A runs no elimination.
    What remains is interpolated.  Each row's lowest t-power is factored
    out and its coefficients are scaled by their least common
    denominator, so every entry becomes an ordinary polynomial over
    Z[x]/(m).  The degree bound D sums, over rows, the largest entry
    degree.  The matrix is evaluated at the D+1 integers 0, 1, -1, 2,
    -2, ..., the field's integral Bareiss kernel runs at each point, and
    the values are interpolated; one further integer point cross-checks
    the interpolant against a direct elimination.  The row scales, the
    t-power and the expansion factor are restored at the end.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError('determinant of a non-square matrix')
    field = matrix.field
    factor, rows = _expand_singletons(field, matrix.entries)
    if not rows:
        return factor
    izero = (0,) * field.degree
    shift = 0
    scale = 1
    int_rows = []
    bound = 0
    for row in rows:
        lo = min(p.min_exp for p in row if not p.is_zero())
        shift += lo
        row_scale = _denominator(c.coeffs for p in row
                                 for c in p.coeffs.values())
        scale *= row_scale
        int_row = []
        row_deg = 0
        for p in row:
            dense, plo = p._dense()
            if not dense:
                int_row.append([izero])
                continue
            int_row.append([izero] * (plo - lo)
                           + [_integral(c, row_scale) for c in dense])
            row_deg = max(row_deg, len(int_row[-1]) - 1)
        int_rows.append(int_row)
        bound += row_deg
    points = [(k + 1) // 2 if k % 2 else -(k // 2) for k in range(bound + 2)]
    values = [field._det([[_dense_eval(field, entry, x) for entry in row]
                          for row in int_rows])
              for x in points]
    poly = _newton_interpolate(field, points[:-1], values[:-1])
    if _dense_eval(field, poly, points[-1]) != values[-1]:
        raise ArithmeticError('determinant interpolation failed its '
                              'verification point; degree bound bug')
    det = _wrap(field, {i + shift: _rational(coeff, scale)
                        for i, coeff in enumerate(poly) if any(coeff)})
    return det if len(rows) == matrix.nrows else factor * det
