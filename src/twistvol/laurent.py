"""Exact Laurent polynomials in t over a number field, and matrices of them.

Determinants of polynomial matrices are computed by evaluation and
interpolation: each row is shifted to ordinary-polynomial form, the
matrix is evaluated at D+1 rational points for a certified degree bound
D, the field's fraction-free elimination (NumberField._det) runs at each
point, and the results are interpolated; the factored-out power of t is
restored at the end.  One extra evaluation point cross-checks the
interpolated result.  Every evaluation, at those points and in
LaurentPolynomial.evaluate, goes through one Horner loop, _dense_eval.
"""

import re
from fractions import Fraction

from .field import NFElement


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

def _dense_trim(a):
    while a and not any(a[-1]):
        a.pop()
    return a


def _dense_divmod(field, a, b):
    """Division with remainder in F[t] on dense ascending lists."""
    a = list(a)
    _dense_trim(a)
    b = list(b)
    _dense_trim(b)
    if not b:
        raise ZeroDivisionError('polynomial division by zero')
    inv = field._inv(b[-1])
    q = [field._zero] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = field._mul(a[-1], inv)
        k = len(a) - len(b)
        q[k] = field._add(q[k], c)
        for i in range(len(b)):
            a[k + i] = field._sub(a[k + i], field._mul(c, b[i]))
        a.pop()
        _dense_trim(a)
    return q, a


def _dense_eval(field, a, x):
    """Value of the dense ascending list a at the raw element x (Horner)."""
    acc = field._zero
    for c in reversed(a):
        acc = field._add(field._mul(acc, x), c)
    return acc


def gcd(p, q):
    """Monic GCD with lowest exponent 0; divides both inputs exactly."""
    p.field._check_same(q.field)
    field = p.field
    if p.is_zero() and q.is_zero():
        raise ValueError('gcd(0, 0) is undefined')
    a, _ = p._dense()
    b, _ = q._dense()
    while b:
        _, r = _dense_divmod(field, a, b)
        a, b = b, r
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
    if p.is_zero():
        return LaurentPolynomial.zero(field)
    ap, lop = p._dense()
    aq, loq = q._dense()
    quo, rem = _dense_divmod(field, ap, aq)
    if rem:
        raise ValueError('polynomial division is not exact')
    return _wrap(field, {i + lop - loq: c for i, c in enumerate(quo) if any(c)})


def order_at_one(p):
    """Largest k with (t-1)^k dividing p, and the cofactor's value at 1.

    Established by repeated exact synthetic division; the returned value
    (p / (t-1)^k)(1) is nonzero.
    """
    if p.is_zero():
        raise ValueError('order at t=1 of the zero polynomial is undefined')
    field = p.field
    dense, _ = p._dense()
    order = 0
    while True:
        value = field._zero
        for c in dense:
            value = field._add(value, c)
        if any(value):
            return order, NFElement(field, value)
        # synthetic division by (t - 1): descending Horner, recycled here
        # on the ascending list from the top end
        quot = [field._zero] * (len(dense) - 1)
        carry = field._zero
        for i in range(len(dense) - 1, 0, -1):
            carry = field._add(carry, dense[i])
            quot[i - 1] = carry
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

    Construction cancels the GCD and normalizes the denominator to be
    monic with lowest exponent 0; the numerator carries the residual
    unit.  The denominator is never zero.
    """

    __slots__ = ('num', 'den')

    def __init__(self, num, den):
        num.field._check_same(den.field)
        field = num.field
        if den.is_zero():
            raise ZeroDivisionError('rational function with zero denominator')
        if num.is_zero():
            self.num = LaurentPolynomial.zero(field)
            self.den = LaurentPolynomial.one(field)
            return
        g = gcd(num, den)
        num = divide_exact(num, g)
        den = divide_exact(den, g)
        # make the denominator monic with lowest exponent 0; the same
        # unit multiplies the numerator, leaving the quotient unchanged
        shift = den.min_exp
        lead_inv = 1 / den.coeffs[den.max_exp]
        self.den = (den * lead_inv).shifted(-shift)
        self.num = (num * lead_inv).shifted(-shift)

    @property
    def field(self):
        return self.num.field

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den == LaurentPolynomial.one(self.field)

    def evaluate(self, at):
        d = self.den.evaluate(at)
        if d.is_zero():
            raise ZeroDivisionError('denominator vanishes at the given point')
        return self.num.evaluate(at) / d

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

    @classmethod
    def from_blocks(cls, field, blocks):
        """Assemble from a 2-D grid of PolyMatrix blocks."""
        rows = []
        for block_row in blocks:
            height = block_row[0].nrows
            for r in range(height):
                rows.append([e for block in block_row for e in block.entries[r]])
        return cls(field, rows)

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
    """Dense ascending coefficients of the interpolant (points rational)."""
    n = len(points)
    dd = list(values)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            diff = field._sub(dd[i], dd[i - 1])
            dd[i] = field._scale(diff, 1 / (points[i] - points[i - k]))
    poly = [dd[n - 1]]
    for i in range(n - 2, -1, -1):
        shifted = [field._zero] + poly
        scaled = [field._scale(c, -points[i]) for c in poly] + [field._zero]
        poly = [field._add(x, y) for x, y in zip(shifted, scaled)]
        poly[0] = field._add(poly[0], dd[i])
    return _dense_trim(poly)


def determinant(matrix):
    """Exact determinant of a square PolyMatrix by interpolation.

    The degree bound D sums, over rows, the largest entry degree after
    the row's t-power has been factored out; evaluation runs at the
    rational points 1, 2, ..., D+1 and one further point cross-checks
    the interpolated polynomial against a direct elimination.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError('determinant of a non-square matrix')
    field = matrix.field
    n = matrix.nrows
    if n == 0:
        return LaurentPolynomial.one(field)
    shift = 0
    dense_rows = []
    bound = 0
    for row in matrix.entries:
        if all(p.is_zero() for p in row):
            return LaurentPolynomial.zero(field)
        lo = min(p.min_exp for p in row if not p.is_zero())
        shift += lo
        dense_row = []
        row_deg = 0
        for p in row:
            dense, plo = p._dense()
            pad = plo - lo
            dense_row.append([field._zero] * pad + dense)
            if dense:
                row_deg = max(row_deg, pad + len(dense) - 1)
        dense_rows.append(dense_row)
        bound += row_deg
    points = [Fraction(k) for k in range(1, bound + 3)]
    raw_points = [field._scale(field._one, x) for x in points]
    values = [field._det([[_dense_eval(field, entry, x) for entry in row]
                          for row in dense_rows])
              for x in raw_points]
    poly = _newton_interpolate(field, points[:-1], values[:-1])
    if _dense_eval(field, poly, raw_points[-1]) != values[-1]:
        raise ArithmeticError('determinant interpolation failed its '
                              'verification point; degree bound bug')
    return _wrap(field, {i + shift: c for i, c in enumerate(poly) if any(c)})
