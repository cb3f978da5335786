"""Exact arithmetic in Q[x]/(m(x)) with a chosen complex embedding.

Elements are vectors of rationals reduced modulo a monic integer
polynomial m, which is screened for visible reducibility at
construction.  The determinant kernel (_det) runs on the integral
elements, Z[x]/(m), with Python int coordinates: its callers hold ints
over one scale from phi to the printed invariant.  It takes one of two
exact paths by the size of the matrix.  A small matrix is packed by
Kronecker substitution x = 2^B into one int matrix, whose integer
Bareiss determinant is decoded into the coefficients of det A in Z[x]
and folded by m (_det_packed); B comes from a rigorous coefficient
bound, and digits left over raise ArithmeticError.  That decode and
fold (_decode) also serves the packed symmetric power in rep.  A large
matrix runs Bareiss on the coordinates (_det_coords).  Its elimination
step and the inverse are both built on the int matrix of multiplication
by an integral element (_mul_matrix): each entry update is one int dot
product per coordinate, and _inv_integral is one _bareiss pass on that
matrix augmented by e_0 plus back substitution, giving w and D with
b * w = D on ints; _inv is its Fraction wrapper.  _bareiss, the one int
elimination besides _det_coords, also gives the squarefree screen of m
its Sylvester resultant, and a prime not dividing that resultant lets
the integer-root screen lift the roots of m mod p (_integer_roots).
_mul is the one element-by-element multiply,
_fold the one reduction by m and _horner the one evaluation loop.
Polynomials in t live in laurent.  All ring operations are exact; the
only inexact step is the embedding into arbitrary-precision complex
numbers (mpmath), whose root of m is the one nearest a user-supplied
hint, refined by Newton iteration.
Degree 1 gives plain rational arithmetic, so the classical (untwisted)
pipeline runs through the same code path.
"""

from fractions import Fraction
from itertools import count
from math import isqrt, lcm
from operator import mul

import mpmath


class EmbeddingError(ValueError):
    """The embedding hint selects no root of m."""


# a hint whose distances to its two nearest roots differ by at most this
# share of the larger one selects neither
_TIE = mpmath.mpf(2) ** -20


# _det packs a matrix when rows * bits(row-norm bound) is at most this
_PACKED_BITS = 1200


def _horner(coeffs, z):
    """Value at z of the nonempty ascending coefficient list coeffs."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


class NumberField:
    """The field Q[x]/(m(x)) for a monic integer polynomial m.

    min_poly lists the coefficients of m constant-first; the embedding
    hint is an approximate complex root of m fixing which Galois
    conjugate the embedding uses: the embedding is the root nearest the
    hint (root).  At load the hint is only screened, by one Newton run
    at low precision from it.
    """

    def __init__(self, min_poly, embedding_hint=('0', '0')):
        coeffs = tuple(int(c) for c in min_poly)
        if len(coeffs) < 2:
            raise ValueError('minimal polynomial must have degree >= 1')
        if coeffs[-1] != 1:
            raise ValueError('minimal polynomial must be monic')
        if len(coeffs) > 2:
            _reject_reducible(coeffs)
        self.min_poly = coeffs
        self.degree = len(coeffs) - 1
        re, im = embedding_hint
        self.embedding_hint = (str(re), str(im))
        self._zero = _rational(_unit(self, 0), 1)
        self._one = _rational(_unit(self, 1), 1)
        self._root_cache = {}
        self._nearest = None
        # screen the hint at load, cheaply: it must be numbers from which
        # Newton's method converges; root() selects the nearest root later
        self._newton(self._hint(), 64)

    @classmethod
    def rationals(cls):
        """Degree-1 field, m(x) = x: plain rational arithmetic."""
        return cls((0, 1), ('0', '0'))

    # ----- raw coefficient-tuple arithmetic (also used by hot loops) -----

    def _add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def _neg(self, a):
        return tuple(-x for x in a)

    def _scale(self, a, r):
        return tuple(x * r for x in a)

    def _mul(self, a, b):
        d = self.degree
        # a zero of the coordinates' own type: int rows stay int, and
        # Fraction rows pay for one Fraction(0), not one per accumulator
        zero = a[0] * 0
        prod = [zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return self._fold(prod)

    def _fold(self, coeffs):
        """The d coordinates of the ascending list coeffs, folded in place
        from the top by x^d = -(m_0 + ... + m_{d-1} x^{d-1})."""
        d = self.degree
        m = self.min_poly
        for k in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[k]
            if c:
                for i in range(d):
                    coeffs[k - d + i] -= c * m[i]
        return tuple(coeffs[:d])

    def _decode(self, value, shift, size):
        """The size balanced base-2^shift digits of the int value, lowest
        first, each in [-2^(shift-1), 2^(shift-1)), folded by m (size >= d);
        ArithmeticError when value needs more digits: the coefficient
        bound behind shift was wrong."""
        half = 1 << (shift - 1)
        mask = (1 << shift) - 1
        digits = []
        for _ in range(size):
            digit = value & mask
            if digit >= half:
                digit -= mask + 1
            digits.append(digit)
            value = (value - digit) >> shift
        if value:
            raise ArithmeticError('packed value has digits beyond degree %d; '
                                  'the coefficient bound is wrong' % (size - 1))
        return self._fold(digits)

    def _inv(self, a):
        scale = _denominator([a])
        w, denom = self._inv_integral(_integral(a, scale))
        return tuple(Fraction(scale * c, denom) for c in w)

    def _inv_integral(self, b):
        """(w, D) with b * w = D on ints, for a nonzero integral b.

        _bareiss on [M_b | e_0] leaves U upper triangular, the column y
        and the last pivot D = +-det M_b.  w = D M_b^-1 e_0, the
        coordinates of D / b, is +-adj(M_b) e_0, integral, so back
        substitution w_i = (D y_i - sum_{j>i} U_ij w_j) / U_ii divides
        exactly.  D need not be the least denominator.
        """
        if not any(b):
            raise ZeroDivisionError('division by zero in the number field')
        d = self.degree
        rows = [[*r, int(i == 0)] for i, r in enumerate(self._mul_matrix(b))]
        if not _bareiss(rows):
            raise ZeroDivisionError('element is a zero divisor; '
                                    'minimal polynomial is not irreducible')
        denom = rows[d - 1][d - 1]
        w = [0] * d
        for i in range(d - 1, -1, -1):
            row = rows[i]
            acc = denom * row[d] - sum(map(mul, row[i + 1:d], w[i + 1:]))
            w[i], = _exact_quotient((acc,), row[i])
        return tuple(w), denom

    def _mul_matrix(self, a):
        """Rows of the int matrix of multiplication by the integral a.

        Column i holds the coordinates of a * x^i, each column the
        previous one shifted up a degree and folded by m, so coordinate
        r of a * b is the dot product of row r with b.
        """
        cols = [a]
        for _ in range(self.degree - 1):
            cols.append(self._fold([0, *cols[-1]]))
        return list(zip(*cols))

    def _pow(self, a, k):
        acc = self._one
        base = a
        while k:
            if k & 1:
                acc = self._mul(acc, base)
            base = self._mul(base, base)
            k >>= 1
        return acc

    def _det(self, rows):
        """Determinant of a square matrix of integral raw elements.

        rows is a list of row lists whose entries have int coordinates,
        i.e. lie in Z[x]/(m); it is eliminated in place.  Returns int
        coordinates.  The row-norm bound N = prod_i sum_j ||a_ij||_1
        bounds every coefficient of det A taken in Z[x], before the
        reduction mod m: ||f g||_1 <= ||f||_1 ||g||_1, and expanding the
        product of the row sums gives every Leibniz term and more.
        An n-row matrix with n * bits(N) <= _PACKED_BITS, or any matrix
        at degree 1, takes _det_packed.  Otherwise the product of the
        row norms, taken in order, passes that limit at some row, and
        _det_coords is taken as soon as it does.  The limit is set from
        the packed/coordinate time ratio per determinant at the largest
        evaluation point of the figure-eight and six Riley invariants,
        in two runs: at most 0.72 up to 1200 (0.10-0.71 at <= 6 rows);
        above it the ratio passes 1 between about 1300 and 2300, by
        field, and is 16-17 at the figure-eight's n = 20 (12100).
        """
        if not rows:
            return (1,) + (0,) * (self.degree - 1)
        limit = _PACKED_BITS // len(rows)
        bound = 1
        for row in rows:
            bound *= sum(abs(c) for a in row for c in a)
            if self.degree > 1 and bound.bit_length() > limit:
                return self._det_coords(rows)
        return self._det_packed(rows, bound)

    def _det_packed(self, rows, bound):
        """_det by Kronecker substitution x = 2^B, B = bits(bound) + 1.

        Each entry a = sum_r c_r x^r becomes the int a(2^B), and integer
        Bareiss gives det A (2^B) exactly, dividing exactly at every
        step (_bareiss).  det A in Z[x] has degree <= n(d - 1), and
        bound > every |coefficient| puts each one in a balanced base-2^B
        digit, so n(d - 1) + 1 digits decode it, folded by m into d
        coordinates (_decode, which raises ArithmeticError on anything
        left beyond them: the bound was wrong).
        """
        n = len(rows)
        shift = bound.bit_length() + 1
        x = 1 << shift
        value = _bareiss([[_horner(a, x) for a in row] for row in rows])
        return self._decode(value, shift, n * (self.degree - 1) + 1)

    def _det_coords(self, rows):
        """_det on the d int coordinates of each entry.

        Bareiss elimination keeps every intermediate entry a minor, hence
        integral: the division by the previous pivot p multiplies by the
        int w with p * w = D (_inv_integral, once per pivot) and divides
        each coordinate by D exactly; for the true quotient q,
        (q p) w = q D, so an unreduced D divides exactly too.
        A nonzero remainder raises ArithmeticError.  The step
        a_ij <- (a_kk a_ij - a_ik a_kj) w / D is one int matrix
        [M(w a_kk) | -M(w a_ik)], built once per row, applied to the
        concatenated coordinates of a_ij and a_kj.
        """
        n = len(rows)
        sign = 1
        # the previous pivot's inverse is w / denom; 1 / 1 at the first step
        w, denom = (1,) + (0,) * (self.degree - 1), 1
        for k in range(n - 1):
            if not any(rows[k][k]):
                pivot = next((i for i in range(k + 1, n) if any(rows[i][k])),
                             None)
                if pivot is None:
                    return (0,) * self.degree
                rows[k], rows[pivot] = rows[pivot], rows[k]
                sign = -sign
            if k:
                w, denom = self._inv_integral(rows[k - 1][k - 1])
            row_k = rows[k]
            m_kk = self._mul_matrix(self._mul(w, row_k[k]))
            for i in range(k + 1, n):
                row_i = rows[i]
                m_ik = self._mul_matrix(self._mul(w, self._neg(row_i[k])))
                step = [p + q for p, q in zip(m_kk, m_ik)]
                for j in range(k + 1, n):
                    xy = row_i[j] + row_k[j]
                    num = tuple([sum(map(mul, c, xy)) for c in step])
                    if denom != 1:
                        num = _exact_quotient(num, denom)
                    row_i[j] = num
        result = rows[n - 1][n - 1]
        return result if sign == 1 else self._neg(result)

    # ----- public element constructors -----

    def element(self, coeffs):
        """Element with the given coefficient vector (length <= degree)."""
        if isinstance(coeffs, NFElement):
            self._check_same(coeffs.field)
            return coeffs
        if isinstance(coeffs, (int, Fraction)):
            return self.from_rational(coeffs)
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError('coefficient vector longer than the field degree')
        vec += [Fraction(0)] * (self.degree - len(vec))
        return NFElement(self, tuple(vec))

    def from_rational(self, r):
        vec = [Fraction(0)] * self.degree
        vec[0] = Fraction(r)
        return NFElement(self, tuple(vec))

    @property
    def zero(self):
        return NFElement(self, self._zero)

    @property
    def one(self):
        return NFElement(self, self._one)

    @property
    def generator(self):
        """The class of x, i.e. the root of m the field adjoins."""
        if self.degree == 1:
            return self.from_rational(-self.min_poly[0])
        vec = [Fraction(0)] * self.degree
        vec[1] = Fraction(1)
        return NFElement(self, tuple(vec))

    def _check_same(self, other):
        if other is not self and not (isinstance(other, NumberField)
                                      and other.min_poly == self.min_poly):
            raise ValueError('elements belong to different number fields')

    # ----- embedding -----

    def root(self, precision):
        """The root of m nearest the hint, refined to `precision` bits.

        The roots of m are found once, at the first call: mpmath.polyroots
        takes tens of milliseconds at degree 8, so loading a field does
        not pay for it.  A hint whose two nearest roots are about equally
        near is an EmbeddingError.  The nearest root is refined by
        Newton's method for each precision.
        """
        if precision not in self._root_cache:
            if self._nearest is None:
                self._nearest = self._nearest_root()
            self._root_cache[precision] = self._newton(self._nearest,
                                                       precision)
        return self._root_cache[precision]

    def _hint(self):
        try:
            return mpmath.mpc(*map(mpmath.mpf, self.embedding_hint))
        except (ValueError, ZeroDivisionError):
            raise EmbeddingError('embedding hint %r is not a pair of '
                                 'numbers' % (self.embedding_hint,)) from None

    def _nearest_root(self):
        """The root of m nearest the hint, to 64 bits."""
        with mpmath.workprec(64):
            hint = self._hint()
            try:
                roots = mpmath.polyroots(self.min_poly[::-1], maxsteps=200,
                                         extraprec=64)
            except mpmath.libmp.NoConvergence:
                raise EmbeddingError('the roots of %r did not converge'
                                     % (list(self.min_poly),)) from None
            near = sorted(roots, key=lambda r: abs(r - hint))
            if len(near) > 1:
                d1, d2 = abs(near[0] - hint), abs(near[1] - hint)
                if d2 - d1 <= _TIE * d2:
                    raise EmbeddingError(
                        'embedding hint %r is about as near %s as %s; it '
                        'selects no root of %r' % (
                            self.embedding_hint, mpmath.nstr(near[0], 6),
                            mpmath.nstr(near[1], 6), list(self.min_poly)))
            return near[0]

    def _newton(self, z, precision):
        """Newton's method for m from z, to `precision` bits."""
        with mpmath.workprec(precision + 64):
            z = mpmath.mpc(z)
            coeffs = [mpmath.mpf(c) for c in self.min_poly]
            deriv = [i * c for i, c in enumerate(coeffs)][1:]
            tol = mpmath.mpf(2) ** (-(precision + 16))
            for _ in range(200):
                fz = _horner(coeffs, z)
                fpz = _horner(deriv, z)
                if fpz == 0:
                    raise EmbeddingError('derivative vanished during Newton '
                                         'refinement; bad embedding hint')
                step = fz / fpz
                z = z - step
                if abs(step) <= tol * max(1, abs(z)):
                    break
            else:
                raise EmbeddingError('embedding hint %r does not converge to a '
                                     'root of %r' % (self.embedding_hint,
                                                     list(self.min_poly)))
            residual = abs(_horner(coeffs, z))
            scale = max(1, abs(z)) ** self.degree
            if residual > scale * mpmath.mpf(2) ** (-(precision // 2)):
                raise EmbeddingError('embedding hint %r is not near a root of %r'
                                     % (self.embedding_hint, list(self.min_poly)))
            return +z

    def embed(self, element, precision=256):
        """Complex value of an element at the distinguished root of m.

        Deterministic for a fixed precision; requires precision >= 64.
        """
        if precision < 64:
            raise ValueError('embedding precision must be at least 64 bits')
        self._check_same(element.field)
        r = self.root(precision)
        with mpmath.workprec(precision + 64):
            return +_horner([mpmath.mpc(c.numerator) / mpmath.mpf(c.denominator)
                             for c in element.coeffs], r)

    def __repr__(self):
        terms = ' + '.join('%d*x^%d' % (c, i)
                           for i, c in enumerate(self.min_poly) if c)
        return '<NumberField Q[x]/(%s)>' % terms


def _reject_reducible(m):
    """ValueError when the monic integer m, of degree n >= 2, is visibly
    reducible over Q.

    Two screens: m must be squarefree (Res(m, m') != 0, the _bareiss
    determinant of their (2n-1)-square Sylvester matrix) and must have
    no integer root (a monic integer polynomial's rational roots are
    integers; m_0 = 0 means x divides m).  They decide irreducibility in
    degree 2 and 3 only.  The least integer root is named.
    """
    n = len(m) - 1
    top = list(m[::-1])
    deriv = [i * c for i, c in enumerate(m)][:0:-1]
    sylvester = [[0] * k + top + [0] * (n - 2 - k) for k in range(n - 1)]
    sylvester += [[0] * k + deriv + [0] * (n - 1 - k) for k in range(n)]
    resultant = _bareiss(sylvester)
    if not resultant:
        raise ValueError('minimal polynomial %r is not squarefree'
                         % (list(m),))
    roots = _integer_roots(m, resultant) if m[0] else [0]
    if roots:
        raise ValueError('minimal polynomial %r has the root %d; it is '
                         'not irreducible' % (list(m), min(roots)))


def _integer_roots(m, resultant):
    """The integer roots of the monic m, given Res(m, m') = resultant != 0.

    For the least prime p not dividing the resultant, m mod p is
    squarefree, so each root of m mod p is simple and Newton's method
    lifts it uniquely mod p^2, p^4, ...  An integer root r has
    |r| <= 1 + max |m_i|, so once the modulus q passes twice that, the
    lift's residue in (-q/2, q/2] is the only candidate over its root
    mod p, and _horner checks it exactly.  The cost is polynomial in the
    bit size of m.
    """
    p = next(p for p in count(2) if resultant % p
             and all(p % k for k in range(2, isqrt(p) + 1)))
    deriv = [i * c for i, c in enumerate(m)][1:]
    height = 2 * (1 + max(map(abs, m[:-1])))
    roots = []
    for r in range(p):
        if _horner(m, r) % p:
            continue
        q = p
        while q <= height:
            q *= q
            r = (r - _horner(m, r) * pow(_horner(deriv, r), -1, q)) % q
        if r > q // 2:
            r -= q
        if not _horner(m, r):
            roots.append(r)
    return roots


def _denominator(elements):
    """Least common denominator of the coordinates of raw elements."""
    return lcm(*(c.denominator for a in elements for c in a))


def _integral(a, scale):
    """Coordinates of the raw element a * scale as ints (scale clears them)."""
    return tuple(c.numerator * (scale // c.denominator) for c in a)


def _rational(a, scale):
    """The raw element a / scale with Fraction coordinates (undoes _integral)."""
    return tuple(Fraction(c, scale) for c in a)


def _unit(field, k):
    """The integer k as a raw element with int coordinates."""
    return (k,) + (0,) * (field.degree - 1)


def _bareiss(rows):
    """Determinant of a nonempty n-row int matrix, n x n or n x (n + 1).

    Eliminated in place by fraction-free Bareiss: every entry after step
    k is a (k+1) x (k+1) minor, so each division by the previous pivot
    is exact (_exact_quotient); a remainder raises ArithmeticError.  A
    nonzero result leaves the first n columns upper triangular, the last
    pivot rows[n-1][n-1] = +-det; an augmented column rides along.
    """
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
            num = [akk * x - aik * y
                   for x, y in zip(row_i[k + 1:], row_k[k + 1:])]
            row_i[k + 1:] = num if prev == 1 else _exact_quotient(num, prev)
        prev = akk
    return sign * rows[n - 1][n - 1]


def _exact_quotient(a, denom):
    """The raw element a / denom; ArithmeticError unless it is integral."""
    out = []
    for c in a:
        q, r = divmod(c, denom)
        if r:
            raise ArithmeticError('Bareiss step left a non-integral entry; '
                                  'the matrix is not over Z[x]/(m)')
        out.append(q)
    return tuple(out)


class NFElement:
    """An exact element of a NumberField, stored as a coefficient vector."""

    __slots__ = ('field', 'coeffs')

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, NFElement):
            self.field._check_same(other.field)
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NFElement(self.field, self.field._add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NFElement(self.field, self.field._sub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NFElement(self.field, self.field._sub(other.coeffs, self.coeffs))

    def __neg__(self):
        return NFElement(self.field, self.field._neg(self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NFElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NFElement(self.field,
                         self.field._mul(self.coeffs, self.field._inv(other.coeffs)))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NFElement(self.field,
                         self.field._mul(other.coeffs, self.field._inv(self.coeffs)))

    def __pow__(self, k):
        if k < 0:
            return NFElement(self.field,
                             self.field._pow(self.field._inv(self.coeffs), -k))
        return NFElement(self.field, self.field._pow(self.coeffs, k))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # equal to a rational, so hashed like it
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def is_zero(self):
        """Exact symbolic zero test; never consults the embedding."""
        return not any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError('element is not rational')
        return self.coeffs[0]

    def __str__(self):
        return '[' + ','.join(str(c) for c in self.coeffs) + ']'

    __repr__ = __str__
