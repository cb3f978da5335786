import random
from fractions import Fraction

import pytest

from twistvol import Matrix, Representation, parse_presentation, symmetric_power


def random_sl2(field, rng, length=5):
    """Product of elementary shears: always determinant 1, exactly."""
    m = Matrix.identity(field, 2)
    for _ in range(length):
        x = field.element([Fraction(rng.randrange(-3, 4))
                           for _ in range(field.degree)])
        if rng.random() < 0.5:
            e = Matrix(field, [[field.one, x], [field.zero, field.one]])
        else:
            e = Matrix(field, [[field.one, field.zero], [x, field.one]])
        m = m * e
    return m


def adjugate(m):
    """Inverse of a determinant-1 2x2 matrix."""
    (a, b), (c, d) = m.rows
    return Matrix(m.field, [[d, -b], [-c, a]])


class TestEvaluate:

    def test_identity_word(self, fig8, fig8_rep, ufield):
        w = fig8.word_from_string('aA')
        assert fig8_rep.evaluate(w) == Matrix.identity(ufield, 2)

    def test_ab_golden(self, fig8, fig8_rep, ufield):
        u = ufield.generator
        got = fig8_rep.evaluate(fig8.word_from_string('ab'))
        assert got == Matrix(ufield, [[1 - u, ufield.one], [-u, ufield.one]])

    def test_relator_maps_to_identity(self, fig8, fig8_rep, ufield):
        r = fig8.relators()[0]
        assert fig8_rep.evaluate(r) == Matrix.identity(ufield, 2)

    def test_unknown_generator(self, fig8, fig8_rep):
        from twistvol import Word
        with pytest.raises(ValueError, match='generator'):
            fig8_rep.evaluate(Word([3]))


class TestSymmetricPowerGoldens:

    def test_sigma2_of_rho_a(self, fig8_rep, ufield):
        got = symmetric_power(fig8_rep.images[0], 2)
        assert got == Matrix(ufield, [[1, 0], [-1, 1]])

    def test_sigma2_equals_transposed_inverse(self, fig8_rep):
        for m in fig8_rep.images:
            assert symmetric_power(m, 2) == adjugate(m).transpose()

    def test_sigma3_of_rho_a(self, fig8_rep, ufield):
        got = symmetric_power(fig8_rep.images[0], 3)
        assert got == Matrix(ufield, [[1, 0, 0], [-2, 1, 0], [1, -1, 1]])

    def test_sigma3_of_rho_b(self, fig8_rep, ufield):
        u = ufield.generator
        got = symmetric_power(fig8_rep.images[1], 3)
        expected = Matrix(ufield, [[ufield.one, u, u * u],
                                   [ufield.zero, ufield.one, 2 * u],
                                   [ufield.zero, ufield.zero, ufield.one]])
        assert got == expected

    def test_sigma4_of_rho_a(self, fig8_rep, ufield):
        got = symmetric_power(fig8_rep.images[0], 4)
        expected = Matrix(ufield, [[1, 0, 0, 0],
                                   [-3, 1, 0, 0],
                                   [3, -2, 1, 0],
                                   [-1, 1, -1, 1]])
        assert got == expected

    def test_sigma4_of_rho_b(self, fig8_rep, ufield):
        u = ufield.generator
        one, zero = ufield.one, ufield.zero
        got = symmetric_power(fig8_rep.images[1], 4)
        expected = Matrix(ufield, [[one, u, u ** 2, u ** 3],
                                   [zero, one, 2 * u, 3 * u ** 2],
                                   [zero, zero, one, 3 * u],
                                   [zero, zero, zero, one]])
        assert got == expected

    def test_sigma_of_identity(self, ufield):
        eye = Matrix.identity(ufield, 2)
        for n in range(1, 7):
            assert symmetric_power(eye, n) == Matrix.identity(ufield, n)

    def test_n1_is_trivial(self, fig8_rep, ufield):
        assert symmetric_power(fig8_rep.images[1], 1) == Matrix.identity(ufield, 1)

    def test_rejects_non_sl2(self, ufield):
        with pytest.raises(ValueError, match='determinant'):
            symmetric_power(Matrix(ufield, [[2, 0], [0, 1]]), 3)


class TestSymmetricPowerProperties:

    def test_multiplicative_and_unimodular(self, ufield, qfield):
        rng = random.Random(42)
        for field in (qfield, ufield):
            for n in range(2, 9):
                m1 = random_sl2(field, rng)
                m2 = random_sl2(field, rng)
                s1, s2 = symmetric_power(m1, n), symmetric_power(m2, n)
                assert symmetric_power(m1 * m2, n) == s1 * s2
                assert s1.det() == field.one

    def test_inverse_compatibility(self, ufield):
        rng = random.Random(43)
        for n in range(2, 7):
            m = random_sl2(ufield, rng)
            product = symmetric_power(adjugate(m), n) * symmetric_power(m, n)
            assert product == Matrix.identity(ufield, n)

    def test_trace_of_diagonal(self, qfield):
        # diag(lam, 1/lam) has sigma_n trace sum lam^(n-1-2k), fixing basis order
        for lam in (Fraction(2), Fraction(3, 2), Fraction(-5, 3)):
            m = Matrix(qfield, [[lam, 0], [0, 1 / lam]])
            for n in range(1, 8):
                expected = sum((Fraction(lam) ** (n - 1 - 2 * k)
                                for k in range(n)), Fraction(0))
                assert symmetric_power(m, n).trace().as_rational() == expected


class TestRepresentationValidation:

    def test_fig8_relations_hold(self, fig8, fig8_rep):
        assert fig8_rep.check_relations(fig8) == []

    def test_u_replaced_by_one_breaks_relation(self, fig8, qfield):
        # with u = 1 the quadratic condition u^2 + u + 1 = 0 fails
        rho_a = Matrix(qfield, [[1, 1], [0, 1]])
        rho_b = Matrix(qfield, [[1, 0], [-1, 1]])
        broken = Representation(fig8, {'a': rho_a, 'b': rho_b})
        report = broken.check_relations(fig8)
        assert len(report) == 1
        assert not report[0][1].is_zero()

    def test_no_relations_empty_report(self, qfield):
        pres = parse_presentation('gens: a\n')
        rep = Representation.trivial(pres, qfield)
        assert rep.check_relations(pres) == []

    def test_det_one_enforced(self, fig8, qfield):
        scaled = Matrix(qfield, [[2, 0], [0, 1]])
        eye = Matrix.identity(qfield, 2)
        with pytest.raises(ValueError, match='determinant'):
            Representation(fig8, {'a': scaled, 'b': eye})

    def test_unaudited_image_inverts_exactly(self, qfield):
        from twistvol import Word
        pres = parse_presentation('gens: a\n')
        m = Matrix(qfield, [[2, 1], [0, 1]])
        rep = Representation(pres, {'a': m}, require_sl2=False)
        assert rep.sl2_failures() == ['a']
        assert rep.evaluate(Word([-1])) * m == Matrix.identity(qfield, 2)

    def test_missing_generator_rejected(self, fig8, qfield):
        eye = Matrix.identity(qfield, 2)
        with pytest.raises(ValueError, match='no matrix'):
            Representation(fig8, {'a': eye})


class TestMatrix:

    def test_det_of_triangular(self, qfield):
        m = Matrix(qfield, [[2, 5], [0, 3]])
        assert m.det().as_rational() == 6

    @pytest.mark.parametrize('rows, det', [
        ([[0, 1], [1, 0]], -1),                       # zero pivot: row swap
        ([[0, 2, 1], [0, 1, 5], [3, 4, 6]], 27),      # swap past a row
        ([[1, 2], [2, 4]], 0),                        # singular
        ([[0, 1], [0, 2]], 0),                        # no pivot in a column
    ])
    def test_det_pivoting_and_singular(self, qfield, rows, det):
        assert Matrix(qfield, rows).det().as_rational() == det
