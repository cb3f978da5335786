"""Wada's twisted Alexander invariant of a deficiency-one presentation.

The pipeline maps group-ring elements through Phi(w) = t^alpha(w) *
sigma_n(rho(w)), assembles the Fox-derivative block matrix, deletes one
generator's block column, and divides the two determinants.  The result
is reduced and brought to a deterministic representative; the invariant
itself is only defined up to a unit +/- t^k, so comparisons go through
the unit-normalized form.
"""

from dataclasses import dataclass

from .group import GroupRingElement, Word, fox_derivative
from .rep import symmetric_power
from .laurent import (LaurentPolynomial, PolyMatrix, RationalFunction,
                      determinant, equal_up_to_unit, normalize_unit,
                      order_at_one, reduce)


class NoAdmissibleColumnError(ValueError):
    """Every candidate denominator det Phi(x_j - 1) vanishes identically."""


class SimpleZeroViolationError(ArithmeticError):
    """An odd-dimensional invariant fails to have a simple zero at t = 1."""


AUTO = 'auto'


@dataclass(frozen=True)
class TwistConfig:
    """Inputs of one invariant computation.

    column selects the deleted generator block ('auto' picks the first
    generator, in declaration order, whose denominator polynomial
    det Phi(x_j - 1) is not identically zero).
    """
    presentation: object
    rep: object
    n: int = 2
    column: str = AUTO

    def __post_init__(self):
        if self.n < 1:
            raise ValueError('symmetric-power dimension n must be >= 1')


def phi(element, cfg):
    """Blockwise twisted map Phi(sum c_w w) = sum c_w t^alpha(w) sigma_n(rho(w)).

    Returns an n x n PolyMatrix; Phi is linear and sends the identity
    word to the identity matrix.
    """
    if isinstance(element, Word):
        element = GroupRingElement(element)
    n = cfg.n
    f = cfg.rep.field
    grid = [[{} for _ in range(n)] for _ in range(n)]
    for word, coeff in element.terms.items():
        exponent = cfg.presentation.abelianize(word)
        mat = symmetric_power(cfg.rep.evaluate(word), n)
        for i in range(n):
            row = mat.rows[i]
            for j in range(n):
                c = row[j]
                if not c.is_zero():
                    cell = grid[i][j]
                    prev = cell.get(exponent)
                    raw = f._scale(c.coeffs, coeff)
                    cell[exponent] = raw if prev is None else f._add(prev, raw)
    return PolyMatrix(f, [[LaurentPolynomial(f, {e: f.element(c) for e, c in cell.items()})
                           for cell in row] for row in grid])


def wada_matrix(cfg):
    """The n(g-1) x ng block matrix Phi(d r_i / d x_j).

    Rows run over relators, block columns over generators in
    declaration order.  A presentation with no relators (the free case)
    yields a 0 x ng matrix.
    """
    pres = cfg.presentation
    g = pres.num_generators
    n = cfg.n
    f = cfg.rep.field
    blocks = []
    for r in pres.relators():
        blocks.append([phi(fox_derivative(r, j), cfg) for j in range(g)])
    if not blocks:
        return PolyMatrix(f, [])
    return PolyMatrix.from_blocks(f, blocks)


def _denominator(cfg, j):
    """det Phi(x_j - 1) for the j-th generator."""
    pres = cfg.presentation
    element = GroupRingElement(pres.generator_word(j)) - 1
    return determinant(phi(element, cfg))


class TwistedAlexander:
    """A unit-normalized twisted Alexander invariant.

    value is the reduced rational function whose numerator has lowest
    exponent 0 and positive leading coefficient; the unit (sign, t-power)
    removed during normalization is kept for transparency.  Two
    invariants are the same when they agree up to a unit +/- t^k.
    """

    __slots__ = ('value', 'n', 'unit_sign', 'unit_exp', 'column')

    def __init__(self, value, n, unit_sign=1, unit_exp=0, column=None):
        self.value = value
        self.n = n
        self.unit_sign = unit_sign
        self.unit_exp = unit_exp
        self.column = column

    def unit_str(self):
        s = '-' if self.unit_sign < 0 else '+'
        return '%st^%d' % (s, self.unit_exp)

    def equal_up_to_unit(self, other):
        if isinstance(other, TwistedAlexander):
            other = other.value
        if isinstance(other, LaurentPolynomial):
            other = RationalFunction(other, LaurentPolynomial.one(other.field))
        return (self.value.den == other.den
                and equal_up_to_unit(self.value.num, other.num))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return '<TwistedAlexander n=%d %s (unit %s)>' % (
            self.n, self.value, self.unit_str())


def twisted_alexander(cfg):
    """Wada's invariant det M_j-hat / det Phi(x_j - 1), reduced and normalized.

    Independent, up to a unit, of which admissible generator column is
    deleted; errors when no generator gives a nonzero denominator.
    """
    pres = cfg.presentation
    names = pres.generator_names
    if cfg.column == AUTO:
        candidates = list(range(len(names)))
    else:
        candidates = [pres.generator_index(cfg.column)]
    full = wada_matrix(cfg)
    n = cfg.n
    for j in candidates:
        den = _denominator(cfg, j)
        if den.is_zero():
            if cfg.column != AUTO:
                raise NoAdmissibleColumnError(
                    'det Phi(%s - 1) is identically zero; pick another column'
                    % names[j])
            continue
        if full.nrows == 0:
            num = LaurentPolynomial.one(cfg.rep.field)
        else:
            num = determinant(full.drop_columns(j * n, n))
        value = reduce(num, den)
        canonical, sign, exp = normalize_unit(value.num)
        normalized = RationalFunction(canonical, value.den)
        return TwistedAlexander(normalized, n, sign, exp, column=names[j])
    raise NoAdmissibleColumnError(
        'no generator has a nonzero denominator det Phi(x_j - 1); the '
        'representation is degenerate for n=%d' % (n,))


def value_at_one(ta):
    """The invariant's number at t = 1 used by the volume sequence.

    Even n (and n = 1) evaluate directly; odd n >= 3 must have a simple
    zero at t = 1 and return the cofactor value (Delta / (t-1))(1).
    """
    num, den = ta.value.num, ta.value.den
    den_at_one = den.evaluate(1)
    if den_at_one.is_zero():
        raise ZeroDivisionError('reduced denominator vanishes at t = 1 '
                                'for n=%d' % (ta.n,))
    if ta.n >= 3 and ta.n % 2 == 1:
        order, cofactor = order_at_one(num)
        if order != 1:
            raise SimpleZeroViolationError(
                'expected a simple zero at t = 1 for odd n=%d, found order %d'
                % (ta.n, order))
        return cofactor / den_at_one
    return num.evaluate(1) / den_at_one
