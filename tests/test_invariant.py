import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistvol import (GroupRingElement, LaurentPolynomial, Matrix,
                      NFElement, NoAdmissibleColumnError, NumberField,
                      Presentation, RationalFunction, Representation,
                      SimpleZeroViolationError, TwistConfig, Word, invariant,
                      laurent,
                      determinant, equal_up_to_unit, fox_derivative,
                      order_at_one, parse_job, parse_presentation, phi,
                      symmetric_power, twisted_alexander, value_at_one,
                      wada_matrix)

from conftest import fig8_wirtinger
from test_laurent import reference_reduce
from test_theorems import RILEY_TEXTS


@pytest.fixture(scope='module')
def knots(fig8, fig8_rep, k7_3):
    """(presentation, representation) of the one-relator test knots; in
    fig8-conjugated, diag(2, 1/2) puts the figure-eight's images over
    scale 4."""
    return {'fig8': (fig8, fig8_rep),
            'k7_3': (k7_3.presentation, k7_3.representation),
            'fig8-conjugated': (fig8, conjugated(fig8, fig8_rep, (
                (2, 0), (0, Fraction(1, 2)))))}


def unshared_wada_blocks(cfg):
    """Blocks sum c_w t^alpha(w) sigma_n(rho(w)) of Phi(d r_i / d x_j).

    Each Fox-derivative term w gets its own evaluate(w), with no products
    shared between terms.
    """
    pres, rep, n = cfg.presentation, cfg.rep, cfg.n
    f = rep.field
    blocks = []
    for r in pres.relators():
        row = []
        for j in range(pres.num_generators):
            block = [[LaurentPolynomial.zero(f)] * n for _ in range(n)]
            for w, c in fox_derivative(r, j).terms.items():
                power = c * LaurentPolynomial.t(f, pres.abelianize(w))
                mat = symmetric_power(rep.evaluate(w), n)
                for i in range(n):
                    for k in range(n):
                        block[i][k] = block[i][k] + power * mat[i, k]
            row.append(block)
        blocks.append(row)
    return blocks


def fig8_polynomials(field):
    """Known reduced invariants of the figure-eight knot, n = 2..5."""
    t = LaurentPolynomial.t(field)
    return {
        2: t ** 2 - 4 * t + 1,
        3: (t - 1) * (t ** 2 - 5 * t + 1),
        4: (t ** 2 - 4 * t + 1) ** 2,
        5: (t - 1) * (t ** 4 - 9 * t ** 3 + 44 * t ** 2 - 9 * t + 1),
    }


class TestPhi:

    def test_b_minus_one_at_n2(self, fig8, fig8_rep, ufield):
        cfg = TwistConfig(fig8, fig8_rep, 2)
        element = GroupRingElement(Word([2])) - 1
        got = phi(element, cfg)
        B = symmetric_power(fig8_rep.images[1], 2)
        t = LaurentPolynomial.t(ufield)
        for i in range(2):
            for j in range(2):
                expected = t * B[i, j] - (1 if i == j else 0)
                assert got[i, j] == expected

    def test_zero_element(self, fig8, fig8_rep):
        cfg = TwistConfig(fig8, fig8_rep, 3)
        got = phi(GroupRingElement(), cfg)
        assert all(got[i, j].is_zero() for i in range(3) for j in range(3))

    def test_identity_word(self, fig8, fig8_rep, ufield):
        cfg = TwistConfig(fig8, fig8_rep, 4)
        got = phi(Word(), cfg)
        for i in range(4):
            for j in range(4):
                expected = LaurentPolynomial.constant(ufield, 1 if i == j else 0)
                assert got[i, j] == expected

    def test_single_word_is_power_times_matrix(self, fig8, fig8_rep, ufield):
        cfg = TwistConfig(fig8, fig8_rep, 3)
        w = fig8.word_from_string('ab')
        got = phi(w, cfg)
        mat = symmetric_power(fig8_rep.evaluate(w), 3)
        for i in range(3):
            for j in range(3):
                assert got[i, j] == LaurentPolynomial.t(ufield, 2) * mat[i, j]

    def test_multiplicative_on_words(self, fig8, fig8_rep):
        cfg = TwistConfig(fig8, fig8_rep, 2)
        u = fig8.word_from_string('aB')
        v = fig8.word_from_string('ba')
        left = phi(GroupRingElement(u) * GroupRingElement(v), cfg)
        pu, pv = phi(u, cfg), phi(v, cfg)
        prod = [[sum((pu[i, k] * pv[k, j] for k in range(2)),
                     LaurentPolynomial.zero(cfg.rep.field))
                 for j in range(2)] for i in range(2)]
        for i in range(2):
            for j in range(2):
                assert left[i, j] == prod[i][j]


class TestWadaMatrix:

    def test_shape(self, fig8, fig8_rep):
        for n in (2, 3, 5):
            m = wada_matrix(TwistConfig(fig8, fig8_rep, n))
            assert (m.nrows, m.ncols) == (n, 2 * n)

    def test_column_a_block_determinant(self, fig8, fig8_rep, ufield):
        # removing the b-column leaves det = unit * (t-1)^2 (t^2 - 4t + 1)
        cfg = TwistConfig(fig8, fig8_rep, 2)
        m = wada_matrix(cfg)
        numerator = determinant(m.drop_columns(2, 2))
        t = LaurentPolynomial.t(ufield)
        assert equal_up_to_unit(numerator, (t - 1) ** 2 * (t ** 2 - 4 * t + 1))

    @pytest.mark.parametrize('knot', ['fig8', 'k7_3'])
    def test_matches_unshared_definition(self, knots, knot):
        pres, rep = knots[knot]
        for n in range(2, 5):
            cfg = TwistConfig(pres, rep, n)
            m = wada_matrix(cfg)
            blocks = unshared_wada_blocks(cfg)
            assert (m.nrows, m.ncols) == (n * len(blocks),
                                          n * pres.num_generators)
            for r, row in enumerate(blocks):
                for j, block in enumerate(row):
                    for i in range(n):
                        for k in range(n):
                            assert m[r * n + i, j * n + k] == block[i][k]

    @pytest.mark.parametrize('knot', ['fig8', 'k7_3', 'fig8-conjugated'])
    @pytest.mark.parametrize('move', [None, 0, 1, 'wirtinger'])
    def test_kept_columns_match_full_matrix(self, knots, knot, move):
        """Assembling without block column j leaves, once j is sliced
        off, the cells and the scale of the full matrix; g = 2, 3, 4.

        The comparison holds for any images, so the figure-eight's
        Wirtinger presentation also runs with K(7/3)'s images, which do
        not satisfy its relations."""
        pres, rep = knots[knot]
        if move == 'wirtinger':
            pres, rep = fig8_wirtinger(rep)
        elif move is not None:
            added, _ = TestTietzeInvariance.GENERATOR_MOVES[move]
            pres, rep = add_generators(pres, rep, added)
        for n in range(1, 5):
            cfg = TwistConfig(pres, rep, n)
            full = wada_matrix(cfg)
            for j in range(pres.num_generators):
                kept = wada_matrix(cfg, j)
                assert (kept.nrows, kept.ncols) == (full.nrows, full.ncols)
                want = full.drop_columns(j * n, n)
                got = kept.drop_columns(j * n, n)
                assert (got.scale, got.cells) == (want.scale, want.cells), \
                    (n, j)

    @pytest.mark.parametrize('knot', ['fig8', 'k7_3', 'k17_5'])
    def test_builds_no_fraction(self, knots, knot, monkeypatch):
        if knot == 'k17_5':
            job = parse_job(RILEY_TEXTS[(17, 5)])
            pres, rep = job.presentation, job.representation
        else:
            pres, rep = knots[knot]
        cfg = TwistConfig(pres, rep, 3)
        calls = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(None)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, '__new__', staticmethod(counting))
        m = wada_matrix(cfg)
        monkeypatch.undo()
        assert len(calls) == 0
        assert (m.nrows, m.ncols) == (3, 6)

    @pytest.mark.parametrize('knot', ['fig8', 'k7_3'])
    def test_rescales_nothing_over_one_scale(self, knots, knot, monkeypatch):
        # every block of these jobs is over scale 1, so the blocks' cells
        # go into the matrix as they are: no _scale call outside phi
        cfg = TwistConfig(*knots[knot], 3)
        inside_phi = []
        calls = []
        scale, block = NumberField._scale, invariant.phi

        def counting(self, a, r):
            if not inside_phi:
                calls.append(None)
            return scale(self, a, r)

        def tracked(*args, **kwargs):
            inside_phi.append(None)
            try:
                return block(*args, **kwargs)
            finally:
                inside_phi.pop()

        monkeypatch.setattr(NumberField, '_scale', counting)
        monkeypatch.setattr(invariant, 'phi', tracked)
        m = wada_matrix(cfg)
        monkeypatch.undo()
        assert calls == []
        assert (m.nrows, m.ncols) == (3, 6)

    def test_unknot_has_empty_wada_matrix(self, qfield):
        pres = parse_presentation('gens: a\n')
        rep = Representation.trivial(pres, qfield)
        m = wada_matrix(TwistConfig(pres, rep, 1))
        assert m.nrows == 0

    def test_classical_fox_matrix_at_n1(self, fig8, qfield):
        # n = 1 with the trivial rep is the abelianized Fox matrix
        rep = Representation.trivial(fig8, qfield)
        m = wada_matrix(TwistConfig(fig8, rep, 1))
        t = LaurentPolynomial.t(qfield)
        assert (m.nrows, m.ncols) == (1, 2)
        assert m[0, 0] == 3 - t - LaurentPolynomial.t(qfield, -1)


class TestTwistedAlexander:

    def test_goldens_up_to_unit(self, fig8, fig8_rep, ufield, fig8_invariants):
        expected = fig8_polynomials(ufield)
        for n in range(2, 6):
            ta = fig8_invariants[n]
            assert ta.value.den == LaurentPolynomial.one(ufield)
            assert ta.equal_up_to_unit(expected[n])

    def test_auto_picks_first_admissible(self, fig8_invariants):
        assert fig8_invariants[2].column == 'a'

    def test_column_independence(self, fig8, fig8_rep):
        for n in range(2, 7):
            via_a = twisted_alexander(TwistConfig(fig8, fig8_rep, n, 'a'))
            via_b = twisted_alexander(TwistConfig(fig8, fig8_rep, n, 'b'))
            assert via_a.equal_up_to_unit(via_b)

    def test_relator_conjugation_invariance(self, knots):
        # the prefixes w and w r of w r w^-1 have equal rho values
        rng = random.Random(2024)
        words = [Word([rng.choice([1, -1, 2, -2])
                       for _ in range(rng.randrange(1, 4))])
                 for _ in range(5)]
        for pres, rep in (knots['fig8'], knots['k7_3']):
            conjugates = [conjugate_relation(pres, w) for w in words]
            for n in range(2, 6):
                base = twisted_alexander(TwistConfig(pres, rep, n))
                for conjugated in conjugates:
                    ta = twisted_alexander(TwistConfig(conjugated, rep, n))
                    assert ta.equal_up_to_unit(base), (n, conjugated.to_text())

    def test_unknot_special_case(self, qfield):
        pres = parse_presentation('gens: a\n')
        rep = Representation.trivial(pres, qfield)
        ta = twisted_alexander(TwistConfig(pres, rep, 1))
        t = LaurentPolynomial.t(qfield)
        assert ta.value.num == LaurentPolynomial.one(qfield)
        assert ta.value.den == t - 1

    def test_classical_alexander_at_n1(self, fig8, qfield):
        rep = Representation.trivial(fig8, qfield)
        ta = twisted_alexander(TwistConfig(fig8, rep, 1))
        t = LaurentPolynomial.t(qfield)
        assert ta.value.num == t ** 2 - 3 * t + 1
        assert ta.value.den == t - 1

    def test_no_admissible_column(self, qfield):
        # alpha = 0 with a trivial image kills every denominator
        pres = Presentation(('a',), [], alpha=(0,))
        rep = Representation.trivial(pres, qfield)
        with pytest.raises(NoAdmissibleColumnError):
            twisted_alexander(TwistConfig(pres, rep, 1))

    def test_three_generators_two_relators(self, qfield):
        from fractions import Fraction
        pres = parse_presentation('gens: a b c\nrel: ab = ba\nrel: bc = cb\n')
        diag = lambda x: Matrix(qfield, [[x, 0], [0, Fraction(1, 1) / x]])
        rep = Representation(pres, {'a': diag(Fraction(2)),
                                    'b': diag(Fraction(3)),
                                    'c': diag(Fraction(5, 2))})
        assert rep.check_relations(pres) == []
        tas = [twisted_alexander(TwistConfig(pres, rep, 2, col))
               for col in ('a', 'b', 'c')]
        assert tas[0].equal_up_to_unit(tas[1])
        assert tas[0].equal_up_to_unit(tas[2])

    def test_parity_of_zero(self, fig8_invariants):
        for n in range(2, 9):
            order, _ = order_at_one(fig8_invariants[n].value.num)
            assert order == (0 if n % 2 == 0 else 1)

    def test_duality_palindrome_at_n2(self, fig8_invariants, ufield):
        num = fig8_invariants[2].value.num
        lo, hi = num.min_exp, num.max_exp
        reversed_poly = LaurentPolynomial(
            ufield, {hi + lo - e: c for e, c in num.coeffs.items()})
        assert equal_up_to_unit(num, reversed_poly)

    def test_duality_all_computed_dimensions(self, fig8_invariants, ufield):
        # reciprocality Delta(1/t) = (+/- t^k) Delta(t) holds for every n
        for n in range(2, 16):
            num = fig8_invariants[n].value.num
            lo, hi = num.min_exp, num.max_exp
            reversed_poly = LaurentPolynomial(
                ufield, {hi + lo - e: c for e, c in num.coeffs.items()})
            assert equal_up_to_unit(num, reversed_poly), n

    @pytest.mark.parametrize('knot', ['fig8', 'k7_3', 'k17_5'])
    def test_builds_no_field_element(self, knots, knot, monkeypatch):
        # the pipeline runs on int coordinates over one scale up to the
        # result: no NFElement and no Fraction until it is printed
        if knot == 'k17_5':
            job = parse_job(RILEY_TEXTS[(17, 5)])
            pres, rep = job.presentation, job.representation
        else:
            pres, rep = knots[knot]
        calls, fractions = [], []
        init, new = NFElement.__init__, Fraction.__new__

        def counting(self, *args):
            calls.append(None)
            init(self, *args)

        def counting_fraction(cls, *args, **kwargs):
            fractions.append(None)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(NFElement, '__init__', counting)
        monkeypatch.setattr(Fraction, '__new__',
                            staticmethod(counting_fraction))
        ta = twisted_alexander(TwistConfig(pres, rep, 3))
        assert len(calls) == 0 and len(fractions) == 0
        # the wrap counts: printing the value builds Fractions
        str(ta.value)
        monkeypatch.undo()
        assert len(calls) > 0 and len(fractions) > 0
        assert ta.value.num.min_exp == 0 and ta.value.den.min_exp == 0

    @pytest.mark.parametrize('column', ['auto', 'a', 'b'])
    def test_non_sl2_image_rejected(self, column):
        """det rho(b) = 2: column b's denominator and the sigma_n of column
        a's Wada blocks reject it with the same error."""
        job = parse_job('gens: a b\nrel: aBAba = baBAb\n'
                        'rep a: [[1,1],[0,1]]\nrep b: [[2,0],[-1,1]]\n')
        for n in range(1, 5):
            cfg = TwistConfig(job.presentation, job.representation, n, column)
            with pytest.raises(ValueError) as info:
                twisted_alexander(cfg)
            assert str(info.value) == 'symmetric power expects determinant 1'

    def test_invalid_n_rejected(self, fig8, fig8_rep):
        with pytest.raises(ValueError):
            TwistConfig(fig8, fig8_rep, 0)


def conjugate_relation(pres, w):
    """pres with its one relation lhs = rhs replaced by w lhs w^-1 = w rhs w^-1."""
    (lhs, rhs), = pres.relations
    return Presentation(pres.generator_names, [(w * lhs * ~w, w * rhs * ~w)],
                        pres.alpha)


def one_relator(pres, relator):
    return Presentation(pres.generator_names, [(relator, Word())], pres.alpha)


def swap_generators(pres, rep):
    """The same group with the two generator names, and images, exchanged."""
    swap = {1: 2, 2: 1, -1: -2, -2: -1}
    relations = [(Word(swap[x] for x in lhs), Word(swap[x] for x in rhs))
                 for lhs, rhs in pres.relations]
    swapped = Presentation(pres.generator_names, relations, pres.alpha[::-1])
    a, b = pres.generator_names
    return swapped, Representation(swapped, {a: rep.images[1],
                                             b: rep.images[0]})


class TestTietzeInvariance:
    """Wada's invariant is unchanged, up to a unit, by Tietze moves."""

    @pytest.mark.parametrize('knot', ['fig8', 'k7_3'])
    def test_relator_moves_and_renaming(self, knots, knot):
        pres, rep = knots[knot]
        (r,) = pres.relators()
        letters = r.letters
        moved = [(one_relator(pres, Word(letters[k:] + letters[:k])), rep)
                 for k in range(1, len(letters))]
        moved.append((one_relator(pres, ~r), rep))
        moved.append(swap_generators(pres, rep))
        for other, other_rep in moved:
            assert other_rep.check_relations(other) == []
        for n in range(2, 6):
            base = twisted_alexander(TwistConfig(pres, rep, n))
            for other, other_rep in moved:
                ta = twisted_alexander(TwistConfig(other, other_rep, n))
                assert ta.equal_up_to_unit(base), (n, other.to_text())

    # (added generators, n range): c = abA, then d = Bab as well; one
    # relator per added generator, so g = 3 has two block rows, g = 4 three
    GENERATOR_MOVES = [((('c', 'abA'),), range(1, 6)),
                       ((('c', 'abA'), ('d', 'Bab')), range(1, 5))]

    @pytest.mark.parametrize('knot', ['fig8', 'k7_3', 'fig8-conjugated'])
    @pytest.mark.parametrize('move', [0, 1])
    def test_added_generators(self, knots, knot, move):
        """Every column of the g-generator presentation gives the
        two-generator invariant; diag(2, 1/2) puts the blocks over scale 4."""
        added, ns = self.GENERATOR_MOVES[move]
        pres, rep = knots[knot]
        other, other_rep = add_generators(pres, rep, added)
        assert other.num_generators == 2 + len(added)
        assert other_rep.check_relations(other) == []
        for n in ns:
            base = twisted_alexander(TwistConfig(pres, rep, n))
            for column in ('auto', *other.generator_names):
                ta = twisted_alexander(TwistConfig(other, other_rep, n,
                                                   column))
                assert ta.equal_up_to_unit(base), (n, column, other.to_text())

    @pytest.mark.parametrize('knot', ['fig8', 'fig8-conjugated'])
    def test_wirtinger_presentation(self, knots, knot):
        """Four arcs and three crossing relations (g = 4, three block
        rows) give the two-generator invariant over every column."""
        pres, rep = knots[knot]
        other, other_rep = fig8_wirtinger(rep)
        assert other_rep.check_relations(other) == []
        for n in range(1, 6):
            base = twisted_alexander(TwistConfig(pres, rep, n))
            for column in ('auto', *other.generator_names):
                ta = twisted_alexander(TwistConfig(other, other_rep, n,
                                                   column))
                assert ta.equal_up_to_unit(base), (n, column)


def add_generators(pres, rep, added):
    """pres with a generator x and the relation x = w for each (x, w) of
    added, w a word in the old generators; rho(x) = rho(w)."""
    gens, rest = pres.to_text().split('\n', 1)
    text = ' '.join([gens, *(x for x, _ in added)]) + '\n' + rest
    text += ''.join('rel: %s = %s\n' % pair for pair in added)
    other = parse_presentation(text)
    images = dict(zip(rep.names, rep.images))
    images.update((x, rep.evaluate(pres.word_from_string(w)))
                  for x, w in added)
    return other, Representation(other, images)


class TestAssemblyCost:
    """rho of the relator prefixes is shared within one invariant only."""

    @pytest.mark.parametrize('knot', ['fig8', 'k7_3'])
    def test_matrix_products_linear_in_relator_length(self, knots, knot,
                                                      monkeypatch):
        pres, rep = knots[knot]
        calls = []
        multiply = Matrix.__mul__

        def counting(self, other):
            calls.append(None)
            return multiply(self, other)

        monkeypatch.setattr(Matrix, '__mul__', counting)
        state = dict(vars(rep))
        cfg = TwistConfig(pres, rep, 3)
        first = twisted_alexander(cfg)
        count = len(calls)
        budget = (sum(len(r) for r in pres.relators())
                  + pres.num_generators + 2)
        assert 0 < count <= budget
        second = twisted_alexander(cfg)
        assert len(calls) == 2 * count     # nothing cached between calls
        assert (second.value.num, second.value.den, second.unit_str()) == \
            (first.value.num, first.value.den, first.unit_str())
        assert vars(rep).keys() == state.keys()
        assert all(vars(rep)[key] is value for key, value in state.items())


def fox_groups(cfg, deleted):
    """The Fox-derivative terms of the block columns other than deleted,
    grouped by (relator, block column, t-exponent): one sorted list of
    (coefficient, Matrix data (scale, ints) of rho(w)) per group.  The
    denominators expand no sigma_n."""
    pres, rep = cfg.presentation, cfg.rep
    groups = {}
    for i, r in enumerate(pres.relators()):
        for j in range(pres.num_generators):
            if j == deleted:
                continue
            for w, c in fox_derivative(r, j).terms.items():
                m = rep.evaluate(w)
                groups.setdefault((i, j, pres.abelianize(w)), []).append(
                    (c, m.scale, m.ints))
    return sorted(sorted(group) for group in groups.values())


class TestSymmetricPowerCost:
    """sigma_n runs once per kept block and distinct t-exponent, on the
    weighted sum of that group's rho values."""

    @pytest.mark.parametrize('knot', ['fig8', 'k7_3', 'fig8-conjugated'])
    def test_once_per_distinct_value(self, knots, knot, monkeypatch):
        if knot == 'fig8-conjugated':
            pres, rep = knots['fig8']
            pres = conjugate_relation(pres, Word([2, -1, 2]))
        else:
            pres, rep = knots[knot]
        expand = invariant.symmetric_power
        calls = []

        def counting(terms, n):
            calls.append(sorted((w, m.scale, m.ints) for w, m in terms))
            return expand(terms, n)

        monkeypatch.setattr(invariant, 'symmetric_power', counting)
        for n in range(2, 5):
            cfg = TwistConfig(pres, rep, n)
            first = twisted_alexander(cfg)
            deleted = pres.generator_index(first.column)
            want = fox_groups(cfg, deleted)
            assert sorted(calls) == want, n
            calls.clear()
            second = twisted_alexander(cfg)
            assert sorted(calls) == want, n    # nothing kept
            calls.clear()
            assert str(second.value) == str(first.value)
        terms = sum(len(fox_derivative(r, j).terms) for r in pres.relators()
                    for j in range(pres.num_generators) if j != deleted)
        assert len(want) < terms       # grouping saves expansion calls


class TestReduceCost:
    """The quotient takes one division; a zero remainder needs no gcd."""

    @pytest.mark.parametrize('knot', ['fig8', 'k7_3'])
    def test_one_division_no_gcd_per_invariant(self, knots, knot,
                                               monkeypatch):
        pres, rep = knots[knot]
        divmod_calls, gcd_calls = [], []

        def count(fn, calls):
            def counting(*args):
                calls.append(None)
                return fn(*args)
            return counting

        for n in range(2, 5):
            monkeypatch.setattr(laurent, '_dense_divmod',
                                count(laurent._dense_divmod, divmod_calls))
            monkeypatch.setattr(laurent, '_dense_gcd',
                                count(laurent._dense_gcd, gcd_calls))
            value = twisted_alexander(TwistConfig(pres, rep, n)).value
            monkeypatch.undo()
            assert (len(divmod_calls), len(gcd_calls)) == (1, 0), n
            divmod_calls.clear()
            num, den = value.num, value.den
            assert reference_reduce(num, den) == (num, den)
            assert den.min_exp == 0
            assert den.coeffs[den.max_exp] == num.field.one
            assert RationalFunction(num, den) == value


def conjugated(pres, rep, p=((1, 0), (1, 1))):
    """rep with every image conjugated by p, of determinant 1.

    By the default P = [[1,0],[1,1]] the meridian images [[1,1],[0,1]]
    become non-triangular, so the matrices t^a sigma_n(P A P^-1) - I
    would need elimination; the closed-form denominators never build
    them.
    """
    f = rep.field
    (a, b), (c, d) = p
    p, p_inv = Matrix(f, p), Matrix(f, [[d, -b], [-c, a]])
    return Representation(pres, {name: p * image * p_inv
                                 for name, image in zip(rep.names, rep.images)})


class TestDenominatorExpansion:
    """Denominators come in closed form from tr rho(x_j): for any image,
    triangular or not, they run no elimination and no sigma_n."""

    @pytest.mark.parametrize('knot', ['fig8', 'k7_3'])
    def test_conjugation_invariance(self, knots, knot):
        # diag(2, 1/2) puts rho(b) over scale 4, so the Wada matrix and
        # the denominator recurrence run with a scale s > 1
        pres, rep = knots[knot]
        for p in (((1, 0), (1, 1)), ((2, 0), (0, Fraction(1, 2)))):
            other = conjugated(pres, rep, p)
            assert other.check_relations(pres) == []
            for n in range(1, 7):
                for column in ('auto', 'a', 'b'):
                    base = twisted_alexander(TwistConfig(pres, rep, n,
                                                         column))
                    ta = twisted_alexander(TwistConfig(pres, other, n,
                                                       column))
                    assert (str(ta.value), ta.unit_str(), ta.column) == \
                        (str(base.value), base.unit_str(), base.column), \
                        (p, n, column)

    def test_non_monic_denominator(self, fig8, fig8_rep, monkeypatch):
        # alpha = -1 sends t to 1/t; at odd n the factor t^-1 - 1 leads
        # with -1, so the division takes _dense_divmod's inverse path
        pres = Presentation(fig8.generator_names, fig8.relations,
                            alpha=(-1, -1))
        rep = Representation(pres, dict(zip(fig8_rep.names,
                                            fig8_rep.images)))
        f = rep.field

        def flip(p):
            return LaurentPolynomial(f, {-e: c for e, c in p.coeffs.items()})

        for n in range(1, 8):
            for column in ('auto', 'a', 'b'):
                base = twisted_alexander(TwistConfig(fig8, fig8_rep, n,
                                                     column))
                ta = twisted_alexander(TwistConfig(pres, rep, n, column))
                assert equal_up_to_unit(ta.value.num, flip(base.value.num))
                assert equal_up_to_unit(ta.value.den, flip(base.value.den))
        calls = []
        inverse = NumberField._inv

        def counting(self, a):
            calls.append(a)
            return inverse(self, a)

        monkeypatch.setattr(NumberField, '_inv', counting)
        twisted_alexander(TwistConfig(pres, rep, 3))
        assert calls == [(-1, 0)]

    @pytest.mark.parametrize('knot', ['fig8', 'k7_3'])
    def test_triangular_denominator_runs_no_elimination(self, knots, knot,
                                                        monkeypatch):
        pres, rep = knots[knot]
        calls = []
        eliminate = NumberField._det

        bareiss = laurent._bareiss

        def counting(self, rows):
            calls.append(None)
            return eliminate(self, rows)

        def counting_packed(rows):
            calls.append(None)
            return bareiss(rows)

        monkeypatch.setattr(NumberField, '_det', counting)
        monkeypatch.setattr(laurent, '_bareiss', counting_packed)
        expand = invariant.symmetric_power

        def counting_power(matrix, n):
            calls.append(None)
            return expand(matrix, n)

        monkeypatch.setattr(invariant, 'symmetric_power', counting_power)
        t = LaurentPolynomial.t(rep.field)
        # J = [[0,1],[-1,0]] makes the meridian image lower triangular,
        # [[1,0],[-1,1]]
        lower = conjugated(pres, rep, ((0, 1), (-1, 0)))
        assert lower.evaluate(Word([1])) == Matrix(rep.field, [[1, 0], [-1, 1]])
        for image in (rep, lower, conjugated(pres, rep)):
            den = invariant._denominator(TwistConfig(pres, image, 12), 0)
            assert len(calls) == 0
            assert den == (t - 1) ** 12


@st.composite
def sl2_matrices(draw, field):
    """+-I, or +-U(x) L(y) U(z) diag(u, 1/u) with unipotent U, L and
    entries of denominator up to 4."""
    sign = draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        return Matrix(field, [[sign, 0], [0, sign]])
    x, y, z, u = (field.element(draw(st.tuples(
        *[st.fractions(min_value=-3, max_value=3, max_denominator=4)]
        * field.degree))) for _ in range(4))
    if u.is_zero():
        u = field.one
    return (Matrix(field, [[sign, sign * x], [0, sign]])
            * Matrix(field, [[1, 0], [y, 1]]) * Matrix(field, [[1, z], [0, 1]])
            * Matrix(field, [[u, 0], [0, 1 / u]]))


def denominator_oracle(cfg, j):
    """det Phi(x_j - 1) through phi, sigma_n and the determinant."""
    x = GroupRingElement(cfg.presentation.generator_word(j))
    return determinant(phi(x - 1, cfg))


class TestClosedFormDenominator:
    """The closed form from tr rho(x_j) is det Phi(x_j - 1) exactly."""

    @pytest.mark.parametrize('field_name', ['qfield', 'ufield', 'cubic'])
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_equals_determinant_of_phi(self, request, field_name, data):
        field = request.getfixturevalue(field_name)
        image = data.draw(sl2_matrices(field))
        for a in range(-2, 3):
            pres = Presentation(('x',), [], alpha=(a,))
            rep = Representation(pres, {'x': image})
            for n in range(1, 9):
                cfg = TwistConfig(pres, rep, n)
                assert (invariant._denominator(cfg, 0)
                        == denominator_oracle(cfg, 0)), (a, n)

    @pytest.mark.parametrize('column', ['auto', 'a'])
    def test_column_chosen_before_assembly(self, fig8_rep, column,
                                           monkeypatch):
        # alpha = 0 and tr = 2 make every denominator 0: the error comes
        # before any Wada block is built
        pres = parse_presentation('gens: a b\nrel: aBAba = baBAb\n'
                                  'alpha: a=0 b=0\n')
        calls = []
        twist = invariant.phi

        def counting(*args):
            calls.append(None)
            return twist(*args)

        monkeypatch.setattr(invariant, 'phi', counting)
        with pytest.raises(NoAdmissibleColumnError):
            twisted_alexander(TwistConfig(pres, fig8_rep, 2, column))
        assert calls == []


class TestDetPathSelection:
    """determinant packs a small matrix once for all its points; a large
    one takes _det, Bareiss on the coordinates, at each point."""

    @staticmethod
    def count_kernel_calls(monkeypatch):
        """{'pack-once': [], '_det': [], '_inv_integral in a kernel': []},
        filled by the calls that follow: rows per packed point and per
        _det call."""
        calls = {'pack-once': [], '_det': [], '_inv_integral in a kernel': []}
        bareiss = laurent._bareiss
        det, inv = NumberField._det, NumberField._inv_integral
        inside = []

        def tracked(key, fn):
            def wrapper(*args):
                calls[key].append(len(args[-1]))
                inside.append(None)
                try:
                    return fn(*args)
                finally:
                    inside.pop()
            return wrapper

        def counting_inv(self, b):
            if inside:
                calls['_inv_integral in a kernel'].append(None)
            return inv(self, b)

        monkeypatch.setattr(laurent, '_bareiss', tracked('pack-once', bareiss))
        monkeypatch.setattr(NumberField, '_det', tracked('_det', det))
        monkeypatch.setattr(NumberField, '_inv_integral', counting_inv)
        return calls

    def test_k17_5_takes_no_pivot_inverse(self, monkeypatch):
        job = parse_job(RILEY_TEXTS[(17, 5)])
        calls = self.count_kernel_calls(monkeypatch)
        twisted_alexander(TwistConfig(job.presentation, job.representation, 3))
        assert calls['pack-once'] == [3] * 14   # D + 2 points, 3 rows each
        assert calls['_det'] == []
        assert calls['_inv_integral in a kernel'] == []

    def test_fig8_n12_stays_on_coordinates(self, fig8, fig8_rep,
                                           monkeypatch):
        calls = self.count_kernel_calls(monkeypatch)
        twisted_alexander(TwistConfig(fig8, fig8_rep, 12))
        assert calls['pack-once'] == []
        assert calls['_det'] == [12] * 26

    # rows * bits(N*) against _PACK_ONCE_BITS at d >= 4 (1200): K(17/5)
    # at n = 6 is 1086, K(11/5) at n = 7 1085, K(11/3) at n = 7 1449
    @pytest.mark.parametrize('knot, n, path, points', [
        ((17, 5), 6, 'pack-once', 26),
        ((11, 5), 7, 'pack-once', 16),
        ((11, 3), 7, '_det', 30),
    ], ids=['k17_5-n6', 'k11_5-n7', 'k11_3-n7'])
    def test_riley_path_by_size(self, knot, n, path, points, monkeypatch):
        job = parse_job(RILEY_TEXTS[knot])
        calls = self.count_kernel_calls(monkeypatch)
        twisted_alexander(TwistConfig(job.presentation, job.representation, n))
        assert calls[path] == [n] * points
        other, = {'pack-once', '_det'} - {path}
        assert calls[other] == []


@pytest.fixture(scope='module')
def trefoil():
    return parse_presentation('gens: a b\nrel: aba = bab\n')


@pytest.fixture(scope='module')
def parabolic_rep(trefoil, qfield):
    shear_up = Matrix(qfield, [[1, 1], [0, 1]])
    shear_down = Matrix(qfield, [[1, 0], [-1, 1]])
    rep = Representation(trefoil, {'a': shear_up, 'b': shear_down})
    assert rep.check_relations(trefoil) == []
    return rep


class TestTrefoil:
    """A second knot through the whole pipeline (relator length 6)."""

    def test_classical_alexander(self, trefoil, qfield):
        rep = Representation.trivial(trefoil, qfield)
        ta = twisted_alexander(TwistConfig(trefoil, rep, 1))
        t = LaurentPolynomial.t(qfield)
        assert ta.value.num == t ** 2 - t + 1
        assert ta.value.den == t - 1

    def test_twisted_values_frozen(self, trefoil, parabolic_rep, qfield):
        t = LaurentPolynomial.t(qfield)
        expected = {2: t ** 2 + 1,
                    3: t ** 3 - 1,
                    4: t ** 4 - t ** 2 + 1}
        for n, poly in expected.items():
            ta = twisted_alexander(TwistConfig(trefoil, parabolic_rep, n))
            assert ta.value.den == LaurentPolynomial.one(qfield)
            assert ta.value.num == poly
            other = twisted_alexander(TwistConfig(trefoil, parabolic_rep, n, 'b'))
            assert ta.equal_up_to_unit(other)


class TestGoldenFiles:

    def test_frozen_invariants_bit_exact(self, fig8, fig8_rep, ufield,
                                         qfield, fig8_invariants):
        from pathlib import Path
        from twistvol import parse_polynomial
        golden = Path(__file__).parent / 'golden' / 'figure-eight'
        for n in range(2, 6):
            num_line, den_line = (golden / ('n%d.txt' % n)).read_text().splitlines()
            ta = fig8_invariants[n]
            assert parse_polynomial(ufield, num_line) == ta.value.num
            assert parse_polynomial(ufield, den_line) == ta.value.den
        num_line, den_line = (golden / 'n1-classical.txt').read_text().splitlines()
        rep = Representation.trivial(fig8, qfield)
        classical = twisted_alexander(TwistConfig(fig8, rep, 1))
        assert parse_polynomial(qfield, num_line) == classical.value.num
        assert parse_polynomial(qfield, den_line) == classical.value.den


class TestValueAtOne:

    def test_known_values(self, fig8_invariants):
        expected = {2: -2, 3: -3, 4: 4, 5: 28}
        for n, want in expected.items():
            got = value_at_one(fig8_invariants[n])
            assert got.as_rational() == want

    @pytest.mark.parametrize('knot', ['fig8', 'k17_5'])
    def test_rational_point_makes_one_field_multiply(self, knots, knot,
                                                     monkeypatch):
        # t = 1 is evaluated coordinate-wise; the one multiply is the
        # division by den(1)
        if knot == 'k17_5':
            job = parse_job(RILEY_TEXTS[(17, 5)])
            pres, rep = job.presentation, job.representation
        else:
            pres, rep = knots[knot]
        multiply = NumberField._mul
        for n in (2, 4):
            ta = twisted_alexander(TwistConfig(pres, rep, n))
            calls = []

            def counting(self, a, b):
                calls.append(None)
                return multiply(self, a, b)

            monkeypatch.setattr(NumberField, '_mul', counting)
            value_at_one(ta)
            monkeypatch.undo()
            assert len(calls) == 1, n

    def test_n1_denominator_vanishes(self, fig8, qfield):
        rep = Representation.trivial(fig8, qfield)
        ta = twisted_alexander(TwistConfig(fig8, rep, 1))
        with pytest.raises(ZeroDivisionError):
            value_at_one(ta)

    def test_simple_zero_violation_detected(self, fig8_invariants, ufield,
                                            qfield):
        from twistvol import RationalFunction, TwistedAlexander
        t = LaurentPolynomial.t(ufield)
        fake = RationalFunction(t ** 2 - 4 * t + 1,
                                LaurentPolynomial.one(ufield))
        with pytest.raises(SimpleZeroViolationError):
            value_at_one(TwistedAlexander(fake, 3))
        # a zero invariant has no simple zero either
        pres = parse_presentation('gens: a b\nrel: ab = ab\n')
        rep = Representation(pres, {'a': Matrix(qfield, [[1, 1], [0, 1]]),
                                    'b': Matrix(qfield, [[1, 0], [-1, 1]])})
        for n in (3, 5):
            zero = twisted_alexander(TwistConfig(pres, rep, n))
            assert zero.value.is_zero()
            with pytest.raises(SimpleZeroViolationError,
                               match='odd n=%d, found the zero invariant' % n):
                value_at_one(zero)
