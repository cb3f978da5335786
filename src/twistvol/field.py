"""Exact arithmetic in Q[x]/(m(x)) with a chosen complex embedding.

Elements are vectors of rationals reduced modulo a monic integer
polynomial m, which is screened for visible reducibility at
construction.  The determinant kernel (_det) runs on the integral
elements, Z[x]/(m), with Python int coordinates: its callers hold ints
over one scale from phi to the printed invariant.  It is Bareiss
elimination on the coordinates, built on the int matrix of
multiplication by an integral element (_mul_matrix).  Each pivot step of
_det is one function per field degree (_row_step), written out from the
int degree d alone: w * a_kk once per pivot and -(w * a_ik) once per row
are straight-line products folded by m, whose multiplication matrices
take _mul_matrix's shift-and-fold, and each new coordinate is one sum of
2d products and one exact divmod; it returns its own pivot's inverse for
the next step, by Cayley-Hamilton.  It is compiled at the first use of
that degree and cached: the generic loops spent most of _det's time in
the interpreter.  It is the one field inverse too: _inv_integral (for
_inv, its Fraction wrapper, laurent's division and rep's inverse of an
image whose determinant is not 1) runs it on the 1 x 1 matrix [[b]],
which gives w and D with b * w = D on ints.
At degree 1 the step is integer Bareiss, with w = 1 and D the pivot, so
plain ints are eliminated by _det too, as 1-tuples over _INTEGERS, the
ring Z as a field of degree 1: laurent's pack-once determinant packs a
matrix of polynomials in t once by Kronecker substitution x = 2^B and
eliminates its ints at each evaluation point; the one decode (_decode)
reads the balanced base-2^B digits of each t-coefficient interpolated
from those packed values, and those of rep's packed symmetric power,
folds them by m and raises ArithmeticError on digits left over.  It too
is one function per field degree (_decoder): a bias turns the balanced
digits into plain ones, read without a branch, and they are folded by m
in one Horner pass with the coefficients of m written out; it is
compiled at the first decode of that degree and cached.  The check for
digits left over catches only some wrong bounds: the bound behind B is
what proves B wide enough (see _decode).  _INTEGERS._det also gives the
squarefree screen of m its Sylvester resultant, so loading a job whose
images have determinant 1 compiles the degree-1 pivot step and no other
step or decode; a prime not dividing that resultant lets the integer-root
screen lift the roots of m mod p (_integer_roots).
Outside the generated step and decode, _mul is the one element product,
folded by m once, and multiplying by a fixed b is planned once: _plan
lists the nonzero entries of _mul_matrix(b), which _add_planned applies
with no fold (rep's word products, laurent's division).  _fold is the
one reduction by m; _horner is the one evaluation loop and _digit_shift
the one rule for a packing shift.
Polynomials in t live in laurent.  All ring operations are exact; the
only inexact step is the embedding into arbitrary-precision complex
numbers (mpmath), whose root of m is the one nearest a user-supplied
hint, refined by Newton iteration.
Degree 1 gives plain rational arithmetic, so the classical (untwisted)
pipeline runs through the same code path.
"""

from fractions import Fraction
from itertools import count
from math import isqrt, lcm, prod

import mpmath


class EmbeddingError(ValueError):
    """The embedding hint selects no root of m."""


# a hint whose distances to its two nearest roots differ by at most this
# share of the larger one selects neither
_TIE = mpmath.mpf(2) ** -20


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
        # Tr(x^i), i < d: the x^i are the columns of _mul_matrix(1)
        self._traces = tuple(
            sum(row[r] for r, row in enumerate(self._mul_matrix(x)))
            for x in zip(*self._mul_matrix(_unit(self, 1))))
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
        """a * b on raw elements, summed unreduced and folded by m once."""
        # a zero of the coordinates' own type: int elements stay int, and
        # Fraction ones pay for one Fraction(0), not one per accumulator
        prod = [a[0] * 0] * (2 * self.degree - 1)
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
        bound behind shift was wrong.  It runs _decoder(d), generated
        once per field degree.

        The caller's bound is what proves shift wide enough; this check
        catches only some wrong bounds.  At degree d >= 3 a short shift
        can leave in-range digits that fold to a wrong element, and then
        a later check fails instead.  For laurent.determinant, which
        decodes each t-coefficient of the interpolated packed ints, that
        is its verification point, t = -2 packed at a wider shift: the
        wrong digits' errors survive there unless they cancel in the sum
        weighted by (-2)^k, which a check at t = -1 or at the same shift
        would let pass far more often."""
        return _decoder(self.degree)(value, shift, size, self.min_poly)

    def _inv(self, a):
        scale = _denominator([a])
        w, denom = self._inv_integral(_integral(a, scale))
        return tuple(Fraction(scale * c, denom) for c in w)

    def _inv_integral(self, b):
        """(w, D) with b * w = D on ints, for a nonzero integral b.

        It is the inverse _det's pivot step (_row_step) returns for the
        1 x 1 matrix [[b]], which has no row to update: by Cayley-Hamilton,
        D = +-det M_b, zero when b divides zero.  D need not be the least
        denominator.
        """
        if not any(b):
            raise ZeroDivisionError('division by zero in the number field')
        w, denom = _row_step(self.degree)([[b]], 0, _unit(self, 1), 1,
                                          self.min_poly, self._traces)
        if not denom:
            raise ZeroDivisionError(_ZERO_DIVISOR)
        return w, denom

    def _mul_matrix(self, a):
        """Rows of the matrix of multiplication by a, int for an integral a.

        Column i holds the coordinates of a * x^i, each column the
        previous one shifted up a degree and folded by m, so coordinate
        r of a * b is the dot product of row r with b.
        """
        cols = [a]
        for _ in range(self.degree - 1):
            cols.append(self._fold([0, *cols[-1]]))
        return list(zip(*cols))

    def _plan(self, b):
        """The nonzero entries (r, s, k) of _mul_matrix(b): coordinate r of
        a * b is the sum of their k * a[s] (_add_planned), with no fold."""
        return [(r, s, k) for r, row in enumerate(self._mul_matrix(b))
                for s, k in enumerate(row) if k]

    def _det(self, rows):
        """Determinant of a square matrix of integral raw elements.

        rows is a list of row lists whose entries have int coordinates,
        i.e. lie in Z[x]/(m); it is eliminated in place, on the d int
        coordinates of each entry, and int coordinates are returned.
        Bareiss elimination keeps every intermediate entry a minor, hence
        integral: the division by the previous pivot p multiplies by the
        int w with p * w = D that p's own step returned, and divides
        each coordinate by D exactly; for the true quotient q,
        (q p) w = q D, so an unreduced D divides exactly too.  A nonzero
        remainder raises ArithmeticError, and D = 0, a zero divisor p,
        ZeroDivisionError once a step needs w / D.  The step
        a_ij <- (a_kk a_ij - a_ik a_kj) w / D is one int matrix
        [M(w a_kk) | -M(w a_ik)] per row, applied to the coordinates of
        a_ij and a_kj for every j of the row.  Each pivot step, those
        matrices and their updates, is one function generated from the
        int degree d alone (_row_step): the products, folds by m and
        updates written out over the d coordinates, compiled at the first
        _det of the degree, since per-call and per-entry interpreter
        work, not int arithmetic, dominated the generic loops.
        """
        if not rows:
            return _unit(self, 1)
        n = len(rows)
        sign = 1
        step = _row_step(self.degree)
        # the previous pivot's inverse is w / denom; 1 / 1 at the first step
        w, denom = _unit(self, 1), 1
        for k in range(n - 1):
            if not any(rows[k][k]):
                pivot = next((i for i in range(k + 1, n) if any(rows[i][k])),
                             None)
                if pivot is None:
                    return _unit(self, 0)
                rows[k], rows[pivot] = rows[pivot], rows[k]
                sign = -sign
            if not denom:
                raise ZeroDivisionError(_ZERO_DIVISOR)
            w, denom = step(rows, k, w, denom, self.min_poly, self._traces)
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

    Two screens: m must be squarefree (Res(m, m') != 0, the _INTEGERS
    determinant of their (2n-1)-square Sylvester matrix) and must have
    no integer root (a monic integer polynomial's rational roots are
    integers; m_0 = 0 means x divides m).  They decide irreducibility in
    degree 2 and 3 only.  The least integer root is named.
    """
    n = len(m) - 1
    top = [(c,) for c in m[::-1]]
    deriv = [(i * c,) for i, c in enumerate(m)][:0:-1]
    zero = [(0,)]
    sylvester = [zero * k + top + zero * (n - 2 - k) for k in range(n - 1)]
    sylvester += [zero * k + deriv + zero * (n - 1 - k) for k in range(n)]
    resultant, = _INTEGERS._det(sylvester)
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


def _digit_shift(bound):
    """The least B whose balanced base-2^B digits, in [-2^(B-1), 2^(B-1)),
    hold every int of absolute value at most bound."""
    return bound.bit_length() + 1


def _unit(field, k):
    """The integer k as a raw element with int coordinates."""
    return (k,) + (0,) * (field.degree - 1)


def _add_planned(out, plans, xs):
    """The coordinate list out plus sum_l xs[l] * b_l, added in place and
    returned as a tuple, for plans[l] the plan of b_l (NumberField._plan)."""
    for a, plan in zip(xs, plans):
        for r, s, k in plan:
            out[r] += k * a[s]
    return tuple(out)


_ZERO_DIVISOR = ('element is a zero divisor; '
                 'minimal polynomial is not irreducible')

_INEXACT = ('Bareiss step left a non-integral entry; '
            'the matrix is not over Z[x]/(m)')


def _exact_quotient(a, denom):
    """The raw element a / denom; ArithmeticError unless it is integral."""
    out = []
    for c in a:
        q, r = divmod(c, denom)
        if r:
            raise ArithmeticError(_INEXACT)
        out.append(q)
    return tuple(out)


# _det's pivot step at degree d, for _row_step to fill in: {kk} sets the
# step coefficients s<r>_<c> of M(w a_kk), {ik} those of M(v a_ik), v = -w;
# a_ij = (x0, ...), a_kj = (y0, ...), new coordinate r q<r>, remainder r<r>;
# the pivot b = (b0, ...) has powers b<j>_<t>, traces z<j>, c<k> below
_PIVOT_STEP = """\
def pivot_step(rows, k, w, denom, m, traces):
    {ms}, _ = m
    {ws}, = w
    {vs}, = -{negated},
    row_k = rows[k]
    {as_}, = row_k[k]
    {kk}
    start = k + 1
    for i in range(start, len(rows)):
        row_i = rows[i]
        {as_}, = row_i[k]
        {ik}
        for j in range(start, len(row_i)):
            {xs}, = row_i[j]
            {ys}, = row_k[j]
            {quotients}
            if {remainders}:
                raise ArithmeticError(_INEXACT)
            row_i[j] = {qs},
    {bs}, = row_k[k]
    {ts}, = traces
    {powers}
    {newton}
    if {fs}:
        raise ArithmeticError(_INEXACT)
    return ({us},), -c{d}
"""

# degree -> its pivot step, built at the first _det of that degree
_ROW_STEPS = {}


def _row_step(d):
    """_det's pivot step at degree d, pivot_step(rows, k, w, denom, m,
    traces): for every row i > k and column j > k, a_ij <- (w a_kk a_ij -
    w a_ik a_kj) / denom on the coordinates, w / denom the inverse of
    the previous pivot, m the coefficients of m and traces the Tr(x^i);
    a nonzero remainder raises ArithmeticError.  In each row's step
    matrix [M(w a_kk) | -M(w a_ik)], written out as straight-line code,
    column 0 is the product summed unreduced and folded by m from the
    top, and each further column the previous one shifted up and folded,
    as in _mul_matrix.  It returns (w', D'), b w' = D' for b = a_kk: the
    traces s_j of b^j, j <= d, give det(X - M_b) = X^d + c_1 X^(d-1) +
    ... + c_d by Newton's identities, k c_k = -(s_k + c_1 s_(k-1) + ...
    + c_(k-1) s_1), each an exact divmod, and by Cayley-Hamilton
    w' = b^(d-1) + c_1 b^(d-2) + ... + c_(d-1), D' = -c_d = +-det M_b.
    Its source is _PIVOT_STEP written out from the int d alone, compiled
    once per degree and cached.
    """
    if d not in _ROW_STEPS:
        def names(prefix, sep=', '):
            return sep.join('%s%d' % (prefix, i) for i in range(d))

        def product(out, u, v):
            # coordinate t < d of u * v lands in out(t)
            def p(t):
                return out(t) if t < d else 'p%d' % t
            lines = ['%s = %s' % (p(t), ' + '.join(
                '%s * %s' % (u(i), v(t - i))
                for i in range(max(0, t - d + 1), min(t, d - 1) + 1)))
                for t in range(2 * d - 1)]
            return lines + ['%s -= %s * m%d' % (p(t - d + i), p(t), i)
                            for t in range(2 * d - 2, d - 1, -1)
                            for i in range(d)]

        def matrix(w, offset):
            lines = product(('s{}_%d' % offset).format, (w + '{}').format,
                            'a{}'.format)
            for c in range(offset + 1, offset + d):
                lines += ['s%d_%d = %ss%d_%d * m%d' % (
                    r, c, 's%d_%d - ' % (r - 1, c - 1) if r else '-',
                    d - 1, c - 1, r) for r in range(d)]
            return lines

        def power(j):
            # coordinate t of b^j
            return ('b{}' if j == 1 else 'b%d_{}' % j).format

        def times(k):
            return 'c%d * ' % k if k else ''

        source = _PIVOT_STEP.format(
            ms=names('m'), ws=names('w'), vs=names('v'),
            negated=names('w', ', -'), as_=names('a'), xs=names('x'),
            ys=names('y'), kk='\n    '.join(matrix('w', 0)),
            ik='\n        '.join(matrix('v', d)),
            quotients='\n            '.join(
                'q%d, r%d = divmod(%s, denom)' % (r, r, ' + '.join(
                    's%d_%d * %s%d' % (r, c, 'xy'[c // d], c % d)
                    for c in range(2 * d))) for r in range(d)),
            remainders=names('r', ' or '), qs=names('q'), bs=names('b'),
            ts=names('t'), d=d,
            fs=' or '.join('f%d' % k for k in range(1, d + 1)),
            powers='\n    '.join(line for j in range(2, d + 1) for line in
                                 product(power(j), power(j - 1), power(1))),
            newton='\n    '.join(
                'z%d = %s\n    c%d, f%d = divmod(%s, -%d)' % (
                    k, ' + '.join('t%d * %s' % (t, power(k)(t))
                                  for t in range(d)),
                    k, k, ' + '.join(times(k - i) + 'z%d' % i
                                     for i in range(1, k + 1)), k)
                for k in range(1, d + 1)),
            us=', '.join(' + '.join(
                [times(k) + power(d - 1 - k)(t) for k in range(d - 1)]
                + ['c%d' % (d - 1) if d > 1 else '1'] * (t == 0))
                for t in range(d)))
        namespace = {'_INEXACT': _INEXACT}
        exec(compile(source, '<pivot_step %d>' % d, 'exec'), namespace)
        _ROW_STEPS[d] = namespace['pivot_step']
    return _ROW_STEPS[d]


_BEYOND = ('packed value has digits beyond degree %d; '
           'the coefficient bound is wrong')

# NumberField._decode at degree d, for _decoder to fill in: the biased
# value's top d digits start r0..r<d-1>, and each lower digit is one
# Horner step, r <- x r + digit folded by m; c is the coordinate carried
# out at x^d
_DECODE = """\
def decode(value, shift, size, m):
    {ms}, _ = m
    mask = (1 << shift) - 1
    half = 1 << (shift - 1)
    top = shift * size
    value += ((1 << top) - 1) // mask << (shift - 1)
    if value < 0 or value >> top:
        raise ArithmeticError(_BEYOND % (size - 1))
    k = top - {d} * shift
    {init}
    for k in range(k - shift, -1, -shift):
        c = r{last}
        {steps}
        r0 = (value >> k & mask) - half - c * m0
    return {rs},
"""

# degree -> its decode, built at the first decode of that degree
_DECODERS = {}


def _decoder(d):
    """NumberField._decode at degree d, decode(value, shift, size, m) for
    m the coefficients of the minimal polynomial.  Adding the bias
    sum_k 2^(shift-1) 2^(shift k), k < size, maps the values with size
    balanced digits onto 0 <= v < 2^(shift size), exactly, so the range
    check is the test for digits left over, and each digit is then the
    plain base-2^shift digit of v less 2^(shift-1), read without a
    branch.  The digits are folded by m from the top, one Horner step
    each, with the d coefficients of m written out.  Its source is
    _DECODE written out from the int d alone, compiled once per degree
    and cached, as _row_step is.
    """
    if d not in _DECODERS:
        source = _DECODE.format(
            d=d, last=d - 1,
            ms=', '.join('m%d' % i for i in range(d)),
            init='\n    '.join('r%d = (value >> k + %d * shift & mask) - half'
                               % (i, i) for i in range(d)),
            steps='\n        '.join('r%d = r%d - c * m%d' % (i, i - 1, i)
                                    for i in range(d - 1, 0, -1)),
            rs=', '.join('r%d' % i for i in range(d)))
        namespace = {'_BEYOND': _BEYOND}
        exec(compile(source, '<decode %d>' % d, 'exec'), namespace)
        _DECODERS[d] = namespace['decode']
    return _DECODERS[d]


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
        if other.is_rational() and other:
            r = other.coeffs[0]
            return NFElement(self.field, tuple(c / r for c in self.coeffs))
        return NFElement(self.field,
                         self.field._mul(self.coeffs, self.field._inv(other.coeffs)))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other / self

    def __pow__(self, k):
        base = self if k >= 0 else 1 / self
        return prod([base] * abs(k), start=self.field.one)

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


# the ring Z as a field of degree 1: its _det, the generated pivot step at
# degree 1, is integer Bareiss on 1-tuples, for packed ints and resultants
_INTEGERS = NumberField.rationals()
