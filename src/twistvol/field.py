"""Exact arithmetic in Q[x]/(m(x)) with a chosen complex embedding.

Elements are vectors of rationals reduced modulo a monic integer
polynomial m.  All ring operations are exact; the only inexact step is
the embedding into arbitrary-precision complex numbers (mpmath), whose
root of m is selected by a user-supplied hint and refined by Newton
iteration.  Degree 1 gives plain rational arithmetic, so the classical
(untwisted) pipeline runs through the same code path.
"""

from fractions import Fraction

import mpmath


class EmbeddingError(ValueError):
    """Newton refinement from the embedding hint failed to converge."""


def _horner(coeffs, z):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


class NumberField:
    """The field Q[x]/(m(x)) for a monic integer polynomial m.

    min_poly lists the coefficients of m constant-first; the embedding
    hint is an approximate complex root of m fixing which Galois
    conjugate the embedding uses.  The hint is validated at load by
    running the Newton refinement once at low precision.
    """

    def __init__(self, min_poly, embedding_hint=('0', '0')):
        coeffs = tuple(int(c) for c in min_poly)
        if len(coeffs) < 2:
            raise ValueError('minimal polynomial must have degree >= 1')
        if coeffs[-1] != 1:
            raise ValueError('minimal polynomial must be monic')
        self.min_poly = coeffs
        self.degree = len(coeffs) - 1
        re, im = embedding_hint
        self.embedding_hint = (str(re), str(im))
        self._zero = (Fraction(0),) * self.degree
        one = [Fraction(0)] * self.degree
        one[0] = Fraction(1)
        self._one = tuple(one)
        self._root_cache = {}
        self.root(64)  # validate the hint now, not at first use

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
        if d == 1:
            return (a[0] * b[0],)
        prod = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        # fold x^k for k >= d using x^d = -(m_0 + ... + m_{d-1} x^{d-1})
        m = self.min_poly
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = Fraction(0)
                for i in range(d):
                    prod[k - d + i] -= c * m[i]
        return tuple(prod[:d])

    def _inv(self, a):
        if not any(a):
            raise ZeroDivisionError('division by zero in the number field')
        if self.degree == 1:
            return (1 / a[0],)
        # extended Euclid on a(x) and m(x) over Q[x]
        r0 = [Fraction(c) for c in self.min_poly]
        r1 = list(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if not r1:
                raise ZeroDivisionError('element is a zero divisor; '
                                        'minimal polynomial is not irreducible')
            if len(r1) == 1:
                inv = 1 / r1[0]
                out = [c * inv for c in s1]
                out += [Fraction(0)] * (self.degree - len(out))
                return tuple(out[:self.degree])
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))

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
        """Determinant of a square matrix of raw elements.

        Fraction-free (Bareiss) elimination: every division is exact, so
        entries grow no faster than the minors they are.  rows is copied.
        """
        n = len(rows)
        if n == 0:
            return self._one
        a = [list(row) for row in rows]
        sign = 1
        prev = self._one
        for k in range(n - 1):
            if not any(a[k][k]):
                pivot = next((i for i in range(k + 1, n) if any(a[i][k])), None)
                if pivot is None:
                    return self._zero
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            prev_inv = self._inv(prev)
            akk = a[k][k]
            for i in range(k + 1, n):
                aik = a[i][k]
                row_i, row_k = a[i], a[k]
                for j in range(k + 1, n):
                    num = self._sub(self._mul(akk, row_i[j]),
                                    self._mul(aik, row_k[j]))
                    row_i[j] = self._mul(num, prev_inv)
                row_i[k] = self._zero
            prev = akk
        result = a[n - 1][n - 1]
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
        """The root of m nearest the hint, refined to `precision` bits."""
        if precision in self._root_cache:
            return self._root_cache[precision]
        with mpmath.workprec(precision + 64):
            z = mpmath.mpc(mpmath.mpf(self.embedding_hint[0]),
                           mpmath.mpf(self.embedding_hint[1]))
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
            z = +z
        self._root_cache[precision] = z
        return z

    def embed(self, element, precision=256):
        """Complex value of an element at the distinguished root of m.

        Deterministic for a fixed precision; requires precision >= 64.
        """
        if precision < 64:
            raise ValueError('embedding precision must be at least 64 bits')
        self._check_same(element.field)
        r = self.root(precision)
        with mpmath.workprec(precision + 64):
            acc = mpmath.mpc(0)
            for c in reversed(element.coeffs):
                acc = acc * r + mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
            acc = +acc
        return acc

    def __eq__(self, other):
        return (isinstance(other, NumberField)
                and self.min_poly == other.min_poly
                and self.embedding_hint == other.embedding_hint)

    def __hash__(self):
        return hash((self.min_poly, self.embedding_hint))

    def __repr__(self):
        terms = ' + '.join('%d*x^%d' % (c, i)
                           for i, c in enumerate(self.min_poly) if c)
        return '<NumberField Q[x]/(%s)>' % terms


def _poly_divmod(a, b):
    a = list(a)
    while b and not b[-1]:
        b = b[:-1]
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while len(a) >= len(b):
        while a and not a[-1]:
            a.pop()
        if len(a) < len(b):
            break
        c = a[-1] * inv
        k = len(a) - len(b)
        q[k] += c
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
        a.pop()
    while a and not a[-1]:
        a.pop()
    return q, a


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


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

    def embed(self, precision=256):
        return self.field.embed(self, precision)

    def __str__(self):
        return '[' + ','.join(str(c) for c in self.coeffs) + ']'

    __repr__ = __str__
