"""Wada's twisted Alexander invariant of a deficiency-one presentation.

The pipeline picks the deleted generator column j by its denominator
det Phi(x_j - 1), in closed form from tr rho(x_j), then maps group-ring
elements through Phi(w) = t^alpha(w) * sigma_n(rho(w)), assembles the
Fox-derivative block matrix without block column j (left as zero
cells), slices that column off, and divides the two determinants.
rho(w) stays integral Matrix data.  phi groups a Fox sum's terms by
t-exponent and takes one linear symmetric_power per group, so each
t-coefficient of each cell is decoded once, and brings the groups to
one scale in a PolyMatrix, the form the determinant takes.  The result
is reduced and brought to a deterministic representative; the
invariant itself is only defined up to a unit +/- t^k, so comparisons
go through the unit-normalized form.
"""

from dataclasses import dataclass
from math import lcm, prod

from .group import GroupRingElement, Word, fox_derivative
from .field import _unit
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


def phi(element, cfg, prefixes=None):
    """Blockwise twisted map Phi(sum c_w w) = sum c_w t^alpha(w) sigma_n(rho(w)).

    Returns an n x n PolyMatrix.  The terms are grouped by t-exponent,
    and each group is one linear symmetric_power call, sum c_w
    sigma_n(rho(w)) on packed ints with one decode per cell; the cells
    are brought to the lcm of the groups' scales.  Phi is linear and
    sends the identity word to the identity matrix.  prefixes, a dict of
    prefix products owned by the caller, is passed on to
    Representation.evaluate.  No rho value is checked for det = 1 here:
    the generator images must be in SL(2), as a Representation checks
    them at construction and twisted_alexander before assembly (a
    Representation built with require_sl2=False is not checked).
    """
    if isinstance(element, Word):
        element = GroupRingElement(element)
    n, f = cfg.n, cfg.rep.field
    groups = {}
    for word, coeff in element.terms.items():
        groups.setdefault(cfg.presentation.abelianize(word), []).append(
            (coeff, cfg.rep.evaluate(word, prefixes)))
    sums = {e: symmetric_power(terms, n, check=False)
            for e, terms in groups.items()}
    scale = lcm(*(mat.scale for mat in sums.values()))
    # tuples of lists, not of generators, as in rep.Matrix._of
    cells = tuple([tuple([{} for _ in range(n)]) for _ in range(n)])
    for e, mat in sums.items():
        k = scale // mat.scale
        for row_cells, row in zip(cells, mat.ints):
            for cell, c in zip(row_cells, row):
                if any(c):
                    cell[e] = c if k == 1 else f._scale(c, k)
    return PolyMatrix._of(f, cells, scale)


def wada_matrix(cfg, deleted=None):
    """The n(g-1) x ng block matrix Phi(d r_i / d x_j).

    Rows run over relators, block columns over generators in
    declaration order, each row the concatenated rows of g phi blocks.
    No relators (the free case) give an empty matrix.  The blocks are
    brought to the lcm of their scales, on ints; a block already over
    it keeps its cells.  Every Fox-derivative term is a prefix of its
    relator, so one prefix dict shared by all the terms makes rho cost
    one int multiply per relator letter; it is dropped on return.

    deleted, a generator index, skips phi for that block column, and
    with it every sigma_n that only its Fox terms need; the column is
    left as n zero columns, and the lcm runs over the kept blocks only.
    None builds every block.
    """
    pres = cfg.presentation
    g = pres.num_generators
    f = cfg.rep.field
    prefixes = {}
    blocks = [[None if j == deleted
               else phi(fox_derivative(r, j), cfg, prefixes)
               for j in range(g)] for r in pres.relators()]
    scale = lcm(*(block.scale for row in blocks for block in row
                  if block is not None))
    zero = tuple([tuple([{} for _ in range(cfg.n)]) for _ in range(cfg.n)])
    cells = []
    for row in blocks:
        parts = [(zero, 1) if block is None
                 else (block.cells, scale // block.scale) for block in row]
        cells.extend(tuple(cell if k == 1
                           else {e: f._scale(c, k) for e, c in cell.items()}
                           for part, k in parts for cell in part[i])
                     for i in range(cfg.n))
    return PolyMatrix._of(f, tuple(cells), scale)


def _denominator(cfg, j):
    """det Phi(x_j - 1) = det(t^a sigma_n(A) - I), A = rho(x_j), a = alpha_j.

    A must be in SL(2); twisted_alexander checks it beforehand.
    sigma_n(A) has the eigenvalues lambda^(n-1-2k), so for det A = 1 and
    V_0 = 2, V_1 = tr A, V_(k+1) = tr A V_k - V_(k-1) it is the product of
    (t^a - 1) for odd n and t^(2a) - V_k t^a + 1, k = n-1, n-3, ... > 0.
    On the ints of A over its scale s, v_k = V_k s^k runs
    v_(k+1) = tau v_k - s^2 v_(k-1), tau = s tr A, all ints.  The
    factors are multiplied here; determinant takes their product as a
    1x1 matrix, so each denominator is still one determinant call, the
    one the traced benchmark counts as laurent.det_den.
    """
    image, n, a = cfg.rep.images[j], cfg.n, cfg.presentation.alpha[j]
    f, s = image.field, image.scale
    tau = f._add(image.ints[0][0], image.ints[1][1])
    v = [_unit(f, 2), tau]
    for k in range(1, n - 1):
        v.append(f._sub(f._mul(tau, v[k]), f._scale(v[k - 1], s * s)))
    one, t_a = LaurentPolynomial.one(f), LaurentPolynomial.one(f).shifted(a)
    factors = [t_a - one] if n % 2 else []
    factors += [t_a * t_a + one - LaurentPolynomial._of(f, {a: v[k]}, s ** k)
                for k in range(n - 1, 0, -2)]
    return determinant(PolyMatrix(f, [[prod(factors, start=one)]]))


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
    deleted; errors when no generator gives a nonzero denominator, which
    is known before the Wada matrix is assembled.  First each generator
    image is checked for det = 1, once: rho of every word is a product
    of them and their inverses, and products and inverses of SL(2)
    matrices are in SL(2), so that covers every sigma_n and denominator;
    a failure is ValueError('symmetric power expects determinant 1').
    The Wada matrix is
    then built without block column j, so neither phi nor any sigma_n
    needed only there runs, and drop_columns slices off its zero cells:
    the numerator is the matrix drop_columns returns.
    """
    pres = cfg.presentation
    names = pres.generator_names
    if cfg.column == AUTO:
        candidates = list(range(len(names)))
    else:
        candidates = [pres.generator_index(cfg.column)]
    n = cfg.n
    if cfg.rep.sl2_failures():
        raise ValueError('symmetric power expects determinant 1')
    for j in candidates:
        den = _denominator(cfg, j)
        if not den.is_zero():
            break
        if cfg.column != AUTO:
            raise NoAdmissibleColumnError(
                'det Phi(%s - 1) is identically zero; pick another column'
                % names[j])
    else:
        raise NoAdmissibleColumnError(
            'no generator has a nonzero denominator det Phi(x_j - 1); the '
            'representation is degenerate for n=%d' % (n,))
    num = determinant(wada_matrix(cfg, j).drop_columns(j * n, n))
    value = reduce(num, den)
    # a unit times the numerator leaves the pair reduced: no second gcd
    value.num, sign, exp = normalize_unit(value.num)
    return TwistedAlexander(value, n, sign, exp, column=names[j])


def value_at_one(ta):
    """The invariant's number at t = 1 used by the volume sequence.

    Even n (and n = 1) evaluate directly; odd n >= 3 must have a simple
    zero at t = 1, so a zero invariant fails there too, and return the
    cofactor value (Delta / (t-1))(1).
    """
    num, den = ta.value.num, ta.value.den
    den_at_one = den.evaluate(1)
    if den_at_one.is_zero():
        raise ZeroDivisionError('reduced denominator vanishes at t = 1 '
                                'for n=%d' % (ta.n,))
    if ta.n >= 3 and ta.n % 2 == 1:
        if num.is_zero():
            raise SimpleZeroViolationError(
                'expected a simple zero at t = 1 for odd n=%d, found the '
                'zero invariant' % (ta.n,))
        order, cofactor = order_at_one(num)
        if order != 1:
            raise SimpleZeroViolationError(
                'expected a simple zero at t = 1 for odd n=%d, found order %d'
                % (ta.n, order))
        return cofactor / den_at_one
    return num.evaluate(1) / den_at_one
