"""SL(2) representations over a number field and their symmetric powers.

The n-th symmetric power realizes the unique n-dimensional irreducible
representation of SL(2) on homogeneous polynomials of degree n-1 in two
variables, with a matrix A acting by precomposition with A^-1.  Basis
order is fixed as x^(n-1), x^(n-2) y, ..., y^(n-1) and coordinates are
written as columns; this is the order that reproduces the standard
contragredient identification sigma_2(M) = transpose(M^-1).

Determinants clear each row's denominators and run the field's integral
Bareiss kernel (NumberField._det) on Python ints; the only inverses
needed, of 2x2 generator images, are adjugate over determinant.  The
symmetric power likewise expands on the int coordinates of scale * M^-1
and divides scale^(n-1) out once per coordinate.  Representation.evaluate
can extend the products of earlier words from a caller-owned prefix
dict, which the Wada matrix shares across the terms of its relators.
"""

from math import comb, prod

from .field import NFElement, NumberField, _denominator, _integral, _rational


class Matrix:
    """An immutable square-or-rectangular matrix over a NumberField."""

    __slots__ = ('field', 'rows')

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(field.element(e) for e in row) for row in rows)
        if self.rows:
            width = len(self.rows[0])
            if any(len(row) != width for row in self.rows):
                raise ValueError('ragged matrix rows')

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[1 if i == j else 0 for j in range(n)]
                           for i in range(n)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError('matrix shape mismatch')
        f = self.field
        a = [[e.coeffs for e in row] for row in self.rows]
        b = [[e.coeffs for e in row] for row in other.rows]
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = f._zero
                for k in range(self.ncols):
                    acc = f._add(acc, f._mul(a[i][k], b[k][j]))
                row.append(NFElement(f, acc))
            out.append(row)
        return Matrix(f, out)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(self.field, [[x + y for x, y in zip(r, s)]
                                   for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix(self.field, [[x - y for x, y in zip(r, s)]
                                   for r, s in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.field, [[-x for x in row] for row in self.rows])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows)

    def is_zero(self):
        return all(e.is_zero() for row in self.rows for e in row)

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows)))

    def trace(self):
        acc = self.field.zero
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def det(self):
        """Exact determinant by the field's integral Bareiss kernel.

        Each row is scaled by the least common denominator of its
        coordinates, so the kernel sees entries in Z[x]/(m); the product
        of those scales is divided out of the result.
        """
        if self.nrows != self.ncols:
            raise ValueError('determinant of a non-square matrix')
        scales = [_denominator(e.coeffs for e in row) for row in self.rows]
        det = self.field._det([[_integral(e.coeffs, s) for e in row]
                               for row, s in zip(self.rows, scales)])
        total = prod(scales)
        return NFElement(self.field, _rational(det, total))

    def __repr__(self):
        body = '; '.join(', '.join(str(e) for e in row) for row in self.rows)
        return 'Matrix[%s]' % body


def symmetric_power(matrix, n):
    """The n-th symmetric power sigma_n of an SL(2) matrix.

    Column j (0-indexed) holds the coordinates of the image of the basis
    monomial x^(n-1-j) y^j, which under p -> p(M^-1 (x,y)^t) is
    (a x + b y)^(n-1-j) (c x + d y)^j with M^-1 = [[a, b], [c, d]];
    coefficients are exact binomial-expansion sums.

    >>> from .field import NumberField
    >>> Q = NumberField.rationals()
    >>> shear = Matrix(Q, [[1, 1], [0, 1]])
    >>> symmetric_power(shear, 2).rows == Matrix(Q, [[1, 0], [-1, 1]]).rows
    True
    """
    if n < 1:
        raise ValueError('symmetric power needs n >= 1')
    f = matrix.field
    if matrix.nrows != 2 or matrix.ncols != 2:
        raise ValueError('symmetric power expects a 2x2 matrix')
    # the entries times scale are integral: det = 1 is ad - bc = scale^2
    # on their int coordinates
    entries = [e.coeffs for row in matrix.rows for e in row]
    scale = _denominator(entries)
    a, b, c, d = (_integral(e, scale) for e in entries)
    square = (scale * scale,) + (0,) * (f.degree - 1)
    if f._sub(f._mul(a, d), f._mul(b, c)) != square:
        raise ValueError('symmetric power expects determinant 1')
    if n == 1:
        return Matrix.identity(f, 1)
    # SL(2) inverse is the adjugate; expand on the integral entries of
    # scale * M^-1, then divide scale^(n-1) (every coordinate is
    # homogeneous of that degree in the entries) out once
    deg = n - 1
    a_pow, b_pow, c_pow, d_pow = (_powers(f, e, deg)
                                  for e in (d, f._neg(b), f._neg(c), a))
    zero = (0,) * f.degree
    cols = []
    for j in range(n):
        # (a x + b y)^(deg - j) expanded in x, y
        p = [f._scale(f._mul(a_pow[deg - j - i], b_pow[i]), comb(deg - j, i))
             for i in range(deg - j + 1)]
        # times (c x + d y)^j
        q = [f._scale(f._mul(c_pow[j - i], d_pow[i]), comb(j, i))
             for i in range(j + 1)]
        col = [zero] * n
        for i1, x in enumerate(p):
            for i2, y in enumerate(q):
                col[i1 + i2] = f._add(col[i1 + i2], f._mul(x, y))
        cols.append(col)
    total = scale ** deg
    return Matrix(f, [[NFElement(f, _rational(cols[j][i], total))
                       for j in range(n)] for i in range(n)])


def _powers(field, raw, upto):
    """raw^0, ..., raw^upto for an element with int coordinates."""
    out = [(1,) + (0,) * (field.degree - 1)]
    for _ in range(upto):
        out.append(field._mul(out[-1], raw))
    return out


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
                if m.det() != self.field.one]

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
    """Adjugate over determinant; ZeroDivisionError when m is singular."""
    (a, b), (c, d) = m.rows
    inv = 1 / m.det()
    return Matrix(m.field, [[d * inv, -b * inv], [-c * inv, a * inv]])
