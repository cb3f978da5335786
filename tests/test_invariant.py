import random

import pytest

from twistvol import (GroupRingElement, LaurentPolynomial, Matrix,
                      NoAdmissibleColumnError, Presentation, Representation,
                      SimpleZeroViolationError, TwistConfig, Word,
                      determinant, equal_up_to_unit, order_at_one, parse_presentation, phi,
                      symmetric_power, twisted_alexander, value_at_one,
                      wada_matrix)


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

    def test_relator_conjugation_invariance(self, fig8, fig8_rep):
        rng = random.Random(2024)
        base = twisted_alexander(TwistConfig(fig8, fig8_rep, 2))
        lhs, rhs = fig8.relations[0]
        for _ in range(5):
            w = Word([rng.choice([1, -1, 2, -2])
                      for _ in range(rng.randrange(1, 4))])
            conjugated = Presentation(('a', 'b'), [(w * lhs * ~w, w * rhs * ~w)])
            ta = twisted_alexander(TwistConfig(conjugated, fig8_rep, 2))
            assert ta.equal_up_to_unit(base)

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

    def test_invalid_n_rejected(self, fig8, fig8_rep):
        with pytest.raises(ValueError):
            TwistConfig(fig8, fig8_rep, 0)


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

    def test_n1_denominator_vanishes(self, fig8, qfield):
        rep = Representation.trivial(fig8, qfield)
        ta = twisted_alexander(TwistConfig(fig8, rep, 1))
        with pytest.raises(ZeroDivisionError):
            value_at_one(ta)

    def test_simple_zero_violation_detected(self, fig8_invariants, ufield):
        from twistvol import RationalFunction, TwistedAlexander
        t = LaurentPolynomial.t(ufield)
        fake = RationalFunction(t ** 2 - 4 * t + 1,
                                LaurentPolynomial.one(ufield))
        with pytest.raises(SimpleZeroViolationError):
            value_at_one(TwistedAlexander(fake, 3))
