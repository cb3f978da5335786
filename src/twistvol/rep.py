"""SL(2) representations over a number field and their symmetric powers.

The n-th symmetric power realizes the unique n-dimensional irreducible
representation of SL(2) on homogeneous polynomials of degree n-1 in two
variables, with a matrix A acting by precomposition with A^-1.  Basis
order is fixed as x^(n-1), x^(n-2) y, ..., y^(n-1) and coordinates are
written as columns; this is the order that reproduces the standard
contragredient identification sigma_2(M) = transpose(M^-1).

A Matrix stores int coordinates over one reduced common denominator and
builds NFElements only at its public boundary; products (each entry one
sum of products folded by m once, NumberField._dot), the determinant
(the field's Bareiss on the coordinates, NumberField._det) and the
symmetric power run on the ints, and one check, ad - bc = scale^2,
decides det = 1.  The symmetric power is linear: it takes (weight,
matrix) pairs, checks every matrix for det = 1 and returns the weighted
sum of their sigma_n.  The entries of each scale * M^-1 are packed at
one x = 2^B (Kronecker substitution), so the binomial expansions
multiply plain ints and no field element and are added cell by cell; B
comes from an l1 bound on the summed coefficients, and the field's
_decode turns each cell, once, into its digits folded by m; it raises
ArithmeticError on digits beyond the degree.
Representation.evaluate can extend the products of earlier words from a
caller-owned prefix dict, shared across the terms of the Wada matrix.
"""

from itertools import accumulate
from math import comb, gcd, lcm
from operator import mul

from .field import (NFElement, NumberField, _denominator, _digit_shift,
                    _horner, _integral, _rational, _unit)


class Matrix:
    """An immutable matrix over a NumberField, stored as ints / scale: int
    coordinate tuples over a positive scale, with no common factor."""

    __slots__ = ('field', 'ints', 'scale')

    def __init__(self, field, rows):
        cells = tuple(tuple(field.element(e).coeffs for e in row)
                      for row in rows)
        if cells and any(len(row) != len(cells[0]) for row in cells):
            raise ValueError('ragged matrix rows')
        self.field = field
        # the least common denominator leaves no common factor
        self.scale = _denominator(c for row in cells for c in row)
        self.ints = tuple(tuple(_integral(c, self.scale) for c in row)
                          for row in cells)

    @classmethod
    def _of(cls, field, ints, scale):
        """The matrix ints / scale for an int scale > 0, reduced."""
        g = gcd(scale, *(x for row in ints for e in row for x in e)) \
            if scale != 1 else 1
        m = cls.__new__(cls)
        m.field, m.scale = field, scale // g
        m.ints = ints if g == 1 else tuple(
            tuple(tuple(x // g for x in e) for e in row) for row in ints)
        return m

    @classmethod
    def identity(cls, field, n):
        return cls._of(field, tuple(tuple(_unit(field, int(i == j))
                                          for j in range(n))
                                    for i in range(n)), 1)

    @property
    def rows(self):
        return tuple(tuple(NFElement(self.field, _rational(e, self.scale))
                           for e in row) for row in self.ints)

    @property
    def nrows(self):
        return len(self.ints)

    @property
    def ncols(self):
        return len(self.ints[0]) if self.ints else 0

    def __getitem__(self, key):
        return self.rows[key[0]][key[1]]

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError('matrix shape mismatch')
        f = self.field
        cols = list(zip(*other.ints))
        return Matrix._of(f, tuple(tuple(f._dot(r, c) for c in cols)
                                   for r in self.ints),
                          self.scale * other.scale)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        f, scale = self.field, lcm(self.scale, other.scale)
        p, q = scale // self.scale, scale // other.scale
        return Matrix._of(f, tuple(tuple(f._sub(f._scale(x, p), f._scale(y, q))
                                         for x, y in zip(r, s))
                                   for r, s in zip(self.ints, other.ints)),
                          scale)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.scale == other.scale
                and self.ints == other.ints)

    def is_zero(self):
        return not any(any(e) for row in self.ints for e in row)

    def transpose(self):
        return Matrix._of(self.field, tuple(zip(*self.ints)), self.scale)

    def trace(self):
        return sum((row[i] for i, row in enumerate(self.rows)), self.field.zero)

    def det(self):
        """Exact determinant: the field's coordinate Bareiss (_det) over
        scale^n."""
        if self.nrows != self.ncols:
            raise ValueError('determinant of a non-square matrix')
        det = self.field._det([list(row) for row in self.ints])
        return NFElement(self.field, _rational(det, self.scale ** self.nrows))

    def __repr__(self):
        body = '; '.join(', '.join(str(e) for e in row) for row in self.rows)
        return 'Matrix[%s]' % body


def _is_sl2(m):
    """Whether the 2x2 m has determinant 1: ad - bc = scale^2 on ints."""
    f = m.field
    (a, b), (c, d) = m.ints
    return f._sub(f._mul(a, d), f._mul(b, c)) == _unit(f, m.scale ** 2)


def symmetric_power(terms, n):
    """sum_k w_k sigma_n(M_k): the n-th symmetric power, made linear.

    terms is a list of (int weight, SL(2) Matrix) pairs; one Matrix M
    stands for [(1, M)].  Every matrix is checked for det = 1, and equal
    matrices are merged by summing their weights.

    Column j (0-indexed) of sigma_n(M) holds the coordinates of the
    image of the basis monomial x^(n-1-j) y^j, which under
    p -> p(M^-1 (x,y)^t) is (a x + b y)^(n-1-j) (c x + d y)^j with
    M^-1 = [[a, b], [c, d]]; coefficients are exact binomial-expansion
    sums.

    The expansion runs on plain ints.  The four entries of s * M^-1,
    for M over scale s, are polynomials in Z[x] of degree < d, packed
    at x = 2^B (Kronecker substitution), so every cell is one int, the
    value at 2^B of its coefficient polynomial in Z[x], of degree
    <= (n-1)(d-1).  sigma_n(M) is that expansion over s^(n-1), so the
    sum is (sum_k w_k (L / s_k^(n-1)) expansion_k) / L for L the lcm of
    the s_k^(n-1), added cell by cell on ints.  With l1 norms of the
    coordinates, the coefficients of column j of one expansion sum in
    absolute value to at most (|a| + |b|)^(n-1-j) (|c| + |d|)^j
    <= norm^(n-1), norm = max(1, |a| + |b|, |c| + |d|), so the one
    shift B = bits(1 + sum_k |w_k| (L / s_k^(n-1)) norm_k^(n-1)) + 1
    puts every coefficient of the sum in a balanced base-2^B digit.
    Each cell is decoded once and folded by m (NumberField._decode,
    which raises ArithmeticError on digits beyond the degree: a wrong
    bound).

    >>> from .field import NumberField
    >>> Q = NumberField.rationals()
    >>> shear = Matrix(Q, [[1, 1], [0, 1]])
    >>> symmetric_power(shear, 2).rows == Matrix(Q, [[1, 0], [-1, 1]]).rows
    True
    >>> eye = Matrix.identity(Q, 2)
    >>> two_terms = symmetric_power([(3, shear), (-2, eye)], 2)
    >>> two_terms.rows == Matrix(Q, [[1, 0], [-3, 1]]).rows
    True
    """
    if n < 1:
        raise ValueError('symmetric power needs n >= 1')
    if isinstance(terms, Matrix):
        terms = [(1, terms)]
    merged = {}
    for weight, matrix in terms:
        if matrix.nrows != 2 or matrix.ncols != 2:
            raise ValueError('symmetric power expects a 2x2 matrix')
        key = (matrix.scale, matrix.ints)
        if key not in merged:
            if not _is_sl2(matrix):
                raise ValueError('symmetric power expects determinant 1')
            merged[key] = [0, matrix]
        merged[key][0] += weight
    f = terms[0][1].field
    deg = n - 1
    # each coordinate of sigma_n(M) is homogeneous of degree n-1 in the
    # entries of s * M^-1 = adj(ints) on SL(2), so over s^(n-1); the sum
    # is over L, the lcm of those
    common = lcm(*(m.scale ** deg for _, m in merged.values()))
    expansions = []
    bound = 1
    for weight, m in merged.values():
        if weight:
            (a, b), (c, d) = m.ints
            weight *= common // m.scale ** deg
            norm = max(1, sum(map(abs, d + b)), sum(map(abs, c + a)))
            bound += abs(weight) * norm ** deg
            expansions.append((weight, (d, f._neg(b), f._neg(c), a)))
    shift = _digit_shift(bound)
    x = 1 << shift
    grid = [[0] * n for _ in range(n)]
    for weight, entries in expansions:
        a_pow, b_pow, c_pow, d_pow = (
            list(accumulate([_horner(e, x)] * deg, mul, initial=1))
            for e in entries)
        for j in range(n):
            # (a x + b y)^(deg - j) expanded in x, y, times the weight
            p = [weight * comb(deg - j, i) * a_pow[deg - j - i] * b_pow[i]
                 for i in range(deg - j + 1)]
            # times (c x + d y)^j
            q = [comb(j, i) * c_pow[j - i] * d_pow[i] for i in range(j + 1)]
            for i1, u in enumerate(p):
                for i2, v in enumerate(q):
                    grid[i1 + i2][j] += u * v
    # (n-1)(d-1) + 1 digits; at n = 1 the one digit is padded to d
    count = max(deg * (f.degree - 1) + 1, f.degree)
    return Matrix._of(f, tuple(tuple(f._decode(v, shift, count) for v in row)
                               for row in grid), common)


class Representation:
    """Generator images in SL(2) over a number field.

    Images are keyed by generator name and aligned with a presentation's
    declaration order.  Determinant-1 is validated at construction
    (disable with require_sl2=False when loading data to be audited,
    then audit with sl2_failures); relation checking is a separate,
    non-throwing report.  A singular image raises ZeroDivisionError.
    """

    def __init__(self, presentation, images, require_sl2=True):
        self.presentation = presentation
        self.names = presentation.generator_names
        mats = []
        for name in self.names:
            if name not in images:
                raise ValueError('no matrix given for generator %r' % (name,))
            m = images[name]
            if m.nrows != 2 or m.ncols != 2:
                raise ValueError('rho(%s) is not a 2x2 matrix' % (name,))
            mats.append(m)
        extra = set(images) - set(self.names)
        if extra:
            raise ValueError('matrices given for undeclared generators %s'
                             % sorted(extra))
        self.field = mats[0].field
        for m in mats:
            self.field._check_same(m.field)
        self.images = tuple(mats)
        bad = self.sl2_failures() if require_sl2 else []
        if bad:
            raise ValueError('determinant of rho(%s) is not 1' % (bad[0],))
        self._inverses = tuple(_sl2_inverse(m) for m in mats)

    @classmethod
    def trivial(cls, presentation, field=None):
        """The trivial SL(2) representation (all generators to the identity)."""
        if field is None:
            field = NumberField.rationals()
        eye = Matrix.identity(field, 2)
        return cls(presentation, {name: eye for name in presentation.generator_names})

    def sl2_failures(self):
        """Names of the generators whose image does not have determinant 1."""
        return [name for name, m in zip(self.names, self.images)
                if not _is_sl2(m)]

    def evaluate(self, word, prefixes=None):
        """Left-to-right product of generator images over the word.

        prefixes is a dict from letter tuples to their products; a caller
        that passes the same dict for many words shares their common
        prefixes.  The longest stored prefix of the word is extended one
        image at a time, and every new prefix product is stored, so the
        words of one relator's Fox derivatives cost one multiply per
        letter between them.
        """
        if prefixes is None:
            prefixes = {}
        letters = tuple(word)
        start = next((k for k in range(len(letters), 0, -1)
                      if letters[:k] in prefixes), 0)
        acc = prefixes[letters[:start]] if start else None
        for k in range(start, len(letters)):
            x = letters[k]
            idx = abs(x) - 1
            if idx >= len(self.images):
                raise ValueError('word uses generator index %d outside the '
                                 'representation' % (idx + 1,))
            image = self.images[idx] if x > 0 else self._inverses[idx]
            acc = image if acc is None else acc * image
            prefixes[letters[:k + 1]] = acc
        return Matrix.identity(self.field, 2) if acc is None else acc

    def check_relations(self, presentation=None):
        """Exact differences evaluate(lhs) - evaluate(rhs) per relation.

        Returns a list of (relation index, difference matrix) for the
        relations that fail; the report is empty iff all hold exactly.
        """
        pres = presentation if presentation is not None else self.presentation
        failures = []
        for k, (lhs, rhs) in enumerate(pres.relations):
            diff = self.evaluate(lhs) - self.evaluate(rhs)
            if not diff.is_zero():
                failures.append((k, diff))
        return failures

    def __repr__(self):
        return '<Representation of <%s> over %r>' % (
            ', '.join(self.names), self.field)


def _sl2_inverse(m):
    """M^-1 = adj(ints) * scale * w / D, with w / D = 1 / (ad - bc)."""
    f = m.field
    (a, b), (c, d) = m.ints
    w, denom = f._inv_integral(f._sub(f._mul(a, d), f._mul(b, c)))
    w = f._scale(w, m.scale if denom > 0 else -m.scale)
    return Matrix._of(f, ((f._mul(d, w), f._neg(f._mul(b, w))),
                          (f._neg(f._mul(c, w)), f._mul(a, w))), abs(denom))
