"""Exact Laurent polynomials in t over a number field, and matrices of them.

A PolyMatrix stores every entry as int coordinates over one positive
scale, from phi to the kernel.  A determinant of a triangular matrix,
upper or lower, is the product of its diagonal, taken on those ints,
and never reaches the kernel; a zero row gives 0.  Any other matrix is
computed by evaluation and interpolation: each row is divided by its
gcd with the scale, shifted to ordinary-polynomial form and held as
flat planes of coordinates, one per power of t, so evaluating a row at
a point is one Horner pass (_at).  For a certified degree bound D, one
node loop takes the determinant over Z[x]/(m) on Python ints, with one
kernel, NumberField._det, over one of two rings chosen here by size.  A
small matrix is packed once at x = 2^B, and its ints are eliminated as
1-tuples over field._INTEGERS, the degree-1 ring; packing and
evaluation are both ring maps, so the values at the nodes 0..D
interpolate to the packed determinant's D + 1 int coefficients, each
decoded once, and a further point, t = -2 packed wider, is the
verification point.  A large one is eliminated on the coordinates, over
the field itself, at D + 2 consecutive integers about zero, whose
(D+1)-th forward difference must be zero (the verification point).
_newton_interpolate takes the values as int tuples: one
forward-difference table checks the values past the first D + 1 and
expands the Newton form with the one common denominator D!, divided out
exactly; the row scales and the factored-out power of t are restored at
the end.  LaurentPolynomial.evaluate (rational points
only) runs the field's Horner loop on each coordinate list (_dense_eval),
on ints at an integral point.  A LaurentPolynomial holds int
coordinates over one scale too, so the data are ints over one scale
from phi to the printed invariant, and Fractions appear only in the
NFElements a polynomial hands out.  Ordinary polynomials in t, dense
ascending lists of raw elements, have their one division with
remainder (_dense_divmod) and one Euclid loop (_dense_gcd) here: a
RationalFunction divides once and runs Euclid only on a nonzero
remainder.  The order at t = 1 is read off the Taylor coefficients
there, with no division.
"""

import re
from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm, prod

from .field import (_INTEGERS, NFElement, _add_planned, _denominator,
                    _digit_shift, _exact_quotient, _horner, _integral,
                    _rational, _unit)

# determinant packs a matrix once, for all its evaluation points, when
# rows * bits(N1) is at most this, at every field degree.  It sits below
# the size at which the pack-once time per determinant passed that of
# the field's own _det, the coordinate Bareiss, at every point, measured
# at degrees 2 to 9 on the numerators of the figure-eight and nine Riley
# jobs (BENCH_pr25.json, "crossover"), where no size lay in 995..1151.
_PACK_ONCE_BITS = 990


class LaurentPolynomial:
    """A finite sum of c_k * t^k with exact number-field coefficients.

    terms maps each exponent with a nonzero coefficient to its int
    coordinates over the one positive int scale, as in rep.Matrix; the
    pair is reduced by its gcd, so equal polynomials hold equal data.
    coeffs, coefficient, evaluate and str build NFElements on demand.
    """

    __slots__ = ('field', 'terms', 'scale')

    def __init__(self, field, coeffs=None):
        self.field = field
        self.terms, self.scale = _cleared(
            {e: field.element(c).coeffs for e, c in (coeffs or {}).items()})

    @classmethod
    def _of(cls, field, terms, scale=1):
        """The polynomial terms / scale, for int coordinates and an int
        scale > 0: its zero tuples dropped and the pair reduced."""
        g = gcd(scale, *(x for c in terms.values() for x in c))
        p = cls.__new__(cls)
        p.field, p.scale = field, scale // g
        p.terms = {e: tuple(x // g for x in c)
                   for e, c in terms.items() if any(c)}
        return p

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def constant(cls, field, c):
        return cls(field, {0: c})

    @classmethod
    def one(cls, field):
        return cls._of(field, {0: _unit(field, 1)})

    @classmethod
    def t(cls, field, exponent=1, coefficient=1):
        return cls(field, {exponent: coefficient})

    @property
    def coeffs(self):
        """The map exponent -> NFElement coefficient, built on each call."""
        return {e: self._element(c) for e, c in self.terms.items()}

    def _element(self, c):
        """The NFElement of the int coordinates c over this scale."""
        return NFElement(self.field, _rational(c, self.scale))

    def is_zero(self):
        return not self.terms

    @property
    def min_exp(self):
        if not self.terms:
            raise ValueError('zero polynomial has no exponents')
        return min(self.terms)

    @property
    def max_exp(self):
        if not self.terms:
            raise ValueError('zero polynomial has no exponents')
        return max(self.terms)

    def coefficient(self, exponent):
        return self._element(self.terms.get(exponent, _unit(self.field, 0)))

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
        f, scale = self.field, lcm(self.scale, other.scale)
        p, q = scale // self.scale, scale // other.scale
        out = {e: f._scale(c, p) for e, c in self.terms.items()}
        for e, c in other.terms.items():
            c = f._scale(c, q)
            out[e] = f._add(out[e], c) if e in out else c
        return self._of(f, out, scale)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return self._of(f, {e: f._neg(c) for e, c in self.terms.items()},
                        self.scale)

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
        f, out = self.field, {}
        for e1, x in self.terms.items():
            for e2, y in other.terms.items():
                e, c = e1 + e2, f._mul(x, y)
                out[e] = f._add(out[e], c) if e in out else c
        return self._of(f, out, self.scale * other.scale)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError('negative powers of polynomials are not defined')
        return prod([self] * k, start=LaurentPolynomial.one(self.field))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.scale == other.scale and self.terms == other.terms

    def shifted(self, k):
        """This polynomial times t^k."""
        return self._of(self.field, {e + k: c for e, c in self.terms.items()},
                        self.scale)

    def evaluate(self, at):
        """Exact value at a nonzero rational point, coordinate-wise; at an
        integral point the Horner loop runs on ints.

        An irrational field element raises ValueError.
        """
        f = self.field
        x = f.element(at).as_rational()
        if not x:
            raise ZeroDivisionError('Laurent polynomials are evaluated at '
                                    'nonzero points only')
        if x.denominator == 1:
            x = x.numerator
        dense, lo = self._dense()
        value = _dense_eval(f, dense, x)
        if lo < 0:
            return NFElement(f, _rational(value, self.scale * x ** -lo))
        return self._element(f._scale(value, x ** lo))

    def _dense(self):
        """(ascending int coordinates, lowest exponent); zero -> ([], 0)."""
        if not self.terms:
            return [], 0
        lo, hi = self.min_exp, self.max_exp
        dense = [_unit(self.field, 0)] * (hi - lo + 1)
        for e, c in self.terms.items():
            dense[e - lo] = c
        return dense, lo

    def __str__(self):
        if not self.terms:
            return '0'
        return ' + '.join('%s*t^%d' % (self._element(self.terms[e]), e)
                          for e in sorted(self.terms, reverse=True))

    __repr__ = __str__


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
    """Drop the trailing zero coefficients of a, in place; returns a."""
    while a and not any(a[-1]):
        a.pop()
    return a


def _dense_divmod(field, a, b):
    """Division with remainder in F[t] on dense ascending lists, each
    coefficient of b planned once per call (NumberField._plan)."""
    a = [list(c) for c in _dense_trim(list(a))]
    b = _dense_trim(list(b))
    if not b:
        raise ZeroDivisionError('polynomial division by zero')
    # a monic divisor (an integral knot denominator, a monic gcd) needs no
    # leading multiply, so int lists give an int quotient and remainder
    inv = (None if b[-1] == _unit(field, 1)
           else [field._plan(field._inv(b[-1]))])
    plans = [[field._plan(y)] for y in b[:-1]]
    q = [_unit(field, 0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a.pop()    # the top term cancels exactly
        c = tuple(c) if inv is None else _add_planned([0] * field.degree,
                                                      inv, [c])
        k = len(a) - len(b) + 1
        q[k] = c
        neg = [[-x for x in c]]
        for i, plan in enumerate(plans, k):
            _add_planned(a[i], plan, neg)
        _dense_trim(a)
    return q, [tuple(c) for c in a]


def _dense_gcd(field, a, b):
    """A gcd in F[t] of the trimmed dense lists a and b (not monic)."""
    while b:
        a, b = b, _dense_divmod(field, a, b)[1]
    return a


def _dense_eval(field, a, x):
    """Value of the dense ascending list a at the int or Fraction x.

    Each coordinate runs through field._horner on its own, never a field
    multiply, so int coefficients at an int point give int coordinates.
    """
    if not a:
        return _unit(field, 0)
    return tuple(_horner(coords, x) for coords in zip(*a))


def order_at_one(p):
    """Largest k with (t-1)^k dividing p, and the cofactor's value at 1.

    With t = (t-1) + 1, the coefficient of (t-1)^k in t^-lo p is
    sum_e C(e - lo, k) c_e, coordinate-wise: the order is the first k at
    which it is nonzero, and it is then (p / (t-1)^k)(1).  No division.
    """
    if p.is_zero():
        raise ValueError('order at t=1 of the zero polynomial is undefined')
    field, lo = p.field, p.min_exp
    order = 0
    while True:
        value = tuple(sum(coords) for coords in zip(
            *(field._scale(c, comb(e - lo, order))
              for e, c in p.terms.items())))
        if any(value):
            return order, p._element(value)
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
    first = next(x for x in p.terms[p.max_exp] if x)
    sign = 1 if first > 0 else -1
    return (p if sign == 1 else -p).shifted(-k), sign, k


def equal_up_to_unit(p, q):
    """Whether p = (+/- t^k) q for some integer k."""
    return normalize_unit(p)[0] == normalize_unit(q)[0]


class RationalFunction:
    """A reduced quotient of Laurent polynomials.

    The denominator is made monic with lowest exponent 0 and the
    numerator carries the residual unit; the denominator is never zero.
    Construction divides num by den once, on dense int lists
    (_dense_divmod), which stay int for an integral monic den: a zero
    remainder leaves quotient / 1 with no gcd at all; otherwise Euclid
    goes on from (den, remainder), since gcd(num, den) =
    gcd(den, remainder), and both are divided by that gcd.  Fractions
    from the other paths are cleared back to ints over one scale.
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
            b = [_unit(field, 1)]
        if b[-1] != _unit(field, 1):
            # a monic denominator: the same unit multiplies the numerator
            lead_inv = field._inv(b[-1])
            b = [field._mul(c, lead_inv) for c in b]
            quo = [field._mul(c, lead_inv) for c in quo]
        self.den = LaurentPolynomial._of(field, *_cleared(dict(enumerate(b))))
        # num / den = (a / b) * den.scale / num.scale
        self.num = LaurentPolynomial._of(field, *_cleared(
            {i + num_lo - den_lo: field._scale(c, den.scale)
             for i, c in enumerate(quo)}, num.scale))

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


def _cleared(terms, scale=1):
    """(ints, scale) of the map terms / scale, for int or Fraction
    coordinates: zeros dropped, over their least common denominator."""
    common = _denominator(terms.values())
    return ({e: _integral(c, common) for e, c in terms.items() if any(c)},
            common * scale)


def reduce(num, den):
    """Reduced rational function num/den (see RationalFunction)."""
    return RationalFunction(num, den)


class PolyMatrix:
    """A rectangular matrix of Laurent polynomials, stored as ints / scale.

    cells[i][j] maps each exponent of entry (i, j) with a nonzero
    coefficient to that coefficient's int coordinates; every entry is
    over the one positive int scale, which need not be the least.  The
    constructor takes Laurent polynomials (or constants) and brings
    them to the lcm of their scales; m[i, j] builds a LaurentPolynomial
    on demand.
    """

    __slots__ = ('field', 'cells', 'scale')

    def __init__(self, field, rows):
        polys = [[p if isinstance(p, LaurentPolynomial)
                  else LaurentPolynomial.constant(field, p) for p in row]
                 for row in rows]
        if polys and any(len(row) != len(polys[0]) for row in polys):
            raise ValueError('ragged polynomial matrix')
        for row in polys:
            for p in row:
                field._check_same(p.field)
        self.field = field
        self.scale = lcm(*(p.scale for row in polys for p in row))
        self.cells = tuple(tuple({e: field._scale(c, self.scale // p.scale)
                                  for e, c in p.terms.items()} for p in row)
                           for row in polys)

    @classmethod
    def _of(cls, field, cells, scale):
        """The matrix cells / scale, for an int scale > 0 and cells that
        hold no zero coordinate tuple."""
        m = cls.__new__(cls)
        m.field, m.cells, m.scale = field, cells, scale
        return m

    @property
    def nrows(self):
        return len(self.cells)

    @property
    def ncols(self):
        return len(self.cells[0]) if self.cells else 0

    def __getitem__(self, key):
        i, j = key
        return LaurentPolynomial._of(self.field, self.cells[i][j], self.scale)

    def drop_columns(self, start, width):
        """Remove `width` consecutive columns beginning at `start`."""
        # a tuple of a list, not of a generator, as in rep.Matrix._of
        cells = tuple([row[:start] + row[start + width:]
                       for row in self.cells])
        return PolyMatrix._of(self.field, cells, self.scale)

    def __repr__(self):
        return '<PolyMatrix %dx%d>' % (self.nrows, self.ncols)


def _newton_interpolate(start, values, degree):
    """Dense ascending int tuples of the interpolant, of degree <= degree,
    of the int tuples values at start, start + 1, ...; each coordinate
    runs on its own list of ints.

    The Newton coefficients are the forward differences of the values
    over k!, and degree + 1 points fix the interpolant, so the values
    past those lie on it exactly when every difference of higher order is
    zero: each such value is a verification point, and a nonzero
    difference raises ArithmeticError.  The Newton form on the first
    degree + 1 points is expanded on ints with the one common denominator
    degree! and divided by it exactly at the end.  The interpolant of an
    integral determinant is integral: a remainder raises ArithmeticError.
    """
    columns = []
    for diffs in map(list, zip(*values)):
        n = len(diffs) - 1
        for k in range(1, n + 1):
            for i in range(n, k - 1, -1):
                diffs[i] -= diffs[i - 1]
        if any(diffs[degree + 1:]):
            raise ArithmeticError(_VERIFY)
        # poly <- poly * (t - x_k) + diffs[k] * degree!/k!, k = degree-1 .. 0
        poly = [diffs[degree]]
        weight = 1
        for k in range(degree - 1, -1, -1):
            x = start + k
            weight *= k + 1
            poly = ([weight * diffs[k] - x * poly[0]]
                    + [u - x * v for u, v in zip(poly, poly[1:])]
                    + [poly[-1]])
        columns.append(poly)
    try:
        return _dense_trim([_exact_quotient(c, weight)
                            for c in zip(*columns)])
    except ArithmeticError:
        raise ArithmeticError('determinant interpolant is not integral; '
                              'an evaluation is wrong') from None


_VERIFY = ('determinant interpolation failed its verification point; '
           'the degree bound or the packing width is wrong')


def _at(planes, x):
    """The flat row sum_k planes[k] x^k, as a new list: the callers
    eliminate it in place, and a row constant in t has one plane."""
    row = list(planes[-1])
    for plane in planes[-2::-1]:
        row = [a * x + c for a, c in zip(row, plane)]
    return row


def _split(flat, d):
    """The flat int list as consecutive d-tuples."""
    entries = iter(flat)
    return list(zip(*(entries,) * d))


def _pack(flat, d, width):
    """Each d-tuple of the flat int list as one int, at x = 2^width."""
    base = 1 << width
    return [_horner(c, base) for c in zip(*[iter(flat)] * d)]


def determinant(matrix):
    """Exact determinant of a square PolyMatrix.

    A triangular matrix, upper or lower, such as the 1x1 matrix of a
    closed-form denominator, is the product of its diagonal, multiplied
    on the ints; it runs no elimination.  Any other matrix with a zero row
    is 0, and one without is interpolated.  Each row is divided by its gcd
    with the scale, which leaves it over the least common denominator of
    its coefficients, and its lowest t-power is factored out, so every
    entry becomes an ordinary polynomial over Z[x]/(m).  Each row is held
    as its planes, plane k listing the d coordinates of every entry's
    t^k coefficient, and evaluated at a point by one Horner pass over
    them (_at).  The degree bound D sums, over rows, the largest entry
    degree.

    N1 = prod over rows of sum over entries of sum_k ||c_k||_1, the l1
    norm over x and t, bounds every coefficient of the determinant F
    taken unreduced in Z[x][t] (||f g||_1 <= ||f||_1 ||g||_1, and
    expanding the product of the row sums gives every Leibniz term and
    more), and so every coefficient in Z[x] of F(x, s) at a point
    |s| <= 1, a sum of coefficients of F times powers of s.  rows *
    bits(N1) against _PACK_ONCE_BITS, at every degree, is the one choice
    of the ring that the one node loop's _det runs over.

    Pack-once: each c_k is packed once at x = 2^B, B = bits(N1) + 1.
    Packing (x -> 2^B) and evaluation (t -> s) are both ring maps, so
    _INTEGERS._det on the packed rows at a node s gives G(s) exactly,
    where G(t) = F(2^B, t) in Z[t] has degree <= D.  The D + 1 nodes 0..D
    therefore fix G's int coefficients G_k = F_k(2^B), which
    _newton_interpolate recovers exactly, and each G_k is decoded once
    into rows * (d - 1) + 1 digits and folded by m; N1 proves B wide
    enough for every F_k.  The verification point is t = -2, outside
    the nodes: F(x, -2) has coefficients at most 2^D N1, so A(-2) is
    packed at B + D + 1, one bit wider than that needs so that no node
    shares its width even at D = 0, and its decoded determinant must
    equal the decoded interpolant at -2.  That checks D, as a further
    node would, and B: a B too short for some F_k that leaves no digit
    over decodes G_k into digits off by (x - 2^B) h_k(x), and the check
    fails unless sum_k h_k (-2)^k vanishes mod m.  At t = -1, which N1
    alone bounds, the carries of neighbouring coefficients cancel in
    that sum too often to trust, and at width B both sides would be
    digits of the one int G(-1).  _decode's ArithmeticError on digits
    left over catches other short widths.

    Coordinates: the field's _det, Bareiss on the coordinates, runs at
    the D + 2 consecutive integers from -floor((D+1)/2), and one
    difference table of the values checks that their (D+1)-th
    difference is zero, the verification point, and interpolates the
    first D + 1.  On either path the row scales and the t-power are
    restored at the end.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError('determinant of a non-square matrix')
    field, cells = matrix.field, matrix.cells
    if (not any(any(row[:i]) for i, row in enumerate(cells))
            or not any(any(row[i + 1:]) for i, row in enumerate(cells))):
        return prod((matrix[i, i] for i in range(len(cells))),
                    start=LaurentPolynomial.one(field))
    d = field.degree
    shift = 0
    scale = 1
    rows = []
    for row in cells:
        if not any(row):
            return LaurentPolynomial.zero(field)
        exponents = [e for cell in row for e in cell]
        lo = min(exponents)
        shift += lo
        row_gcd = gcd(matrix.scale,
                      *(x for cell in row for c in cell.values() for x in c))
        scale *= matrix.scale // row_gcd
        planes = [[0] * (len(row) * d)
                  for _ in range(max(exponents) - lo + 1)]
        for j, cell in enumerate(row):
            for e, c in cell.items():
                planes[e - lo][j * d:(j + 1) * d] = (
                    c if row_gcd == 1 else _exact_quotient(c, row_gcd))
        rows.append(planes)
    bound = sum(len(planes) - 1 for planes in rows)
    norm = prod(sum(map(abs, chain.from_iterable(planes))) for planes in rows)
    n = len(rows)
    packed = n * norm.bit_length() <= _PACK_ONCE_BITS
    if packed:
        # each plane packed once, its ints 1-tuples over the degree-1 ring
        ring, width = _INTEGERS, _digit_shift(norm)
        points = range(bound + 1)
        node_rows = [[_pack(plane, d, width) for plane in planes]
                     for planes in rows]
    else:
        ring, node_rows = field, rows
        start = -((bound + 1) // 2)
        points = range(start, start + bound + 2)
    values = [ring._det([_split(_at(planes, x), ring.degree)
                         for planes in node_rows]) for x in points]
    poly = _newton_interpolate(points.start, values, bound)
    if packed:
        digits = n * (d - 1) + 1
        poly = [field._decode(value, width, digits) for value, in poly]
        # the verification point t = -2, at a width no node shares
        wide = width + bound + 1
        check, = _INTEGERS._det([_split(_pack(_at(planes, -2), d, wide), 1)
                                 for planes in rows])
        if field._decode(check, wide, digits) != _dense_eval(field, poly, -2):
            raise ArithmeticError(_VERIFY)
    return LaurentPolynomial._of(field, dict(enumerate(poly, shift)), scale)
