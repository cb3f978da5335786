import random

import pytest

from twistvol import (GroupRingElement, ParseError, Word, abelianize,
                      fox_derivative, parse_presentation, relator)

from conftest import FIG8_TEXT


def words_equal(grelem, expected):
    return grelem == GroupRingElement(expected)


class TestFreeReduce:

    def test_cancellation(self):
        assert Word([1, -1, 2]).letters == (2,)

    def test_empty_is_identity(self):
        assert Word([]).is_identity()

    def test_nested_cancellation(self):
        assert Word([1, 2, -2, -1]).is_identity()

    def test_idempotent_and_nonincreasing(self):
        rng = random.Random(7)
        for _ in range(200):
            raw = [rng.choice([1, -1, 2, -2, 3, -3])
                   for _ in range(rng.randrange(0, 21))]
            w = Word(raw)
            assert Word(w.letters).letters == w.letters
            assert len(w) <= len(raw)

    def test_rejects_zero_letters(self):
        with pytest.raises(ValueError):
            Word([0, 1])


class TestParse:

    def test_figure_eight(self):
        pres = parse_presentation(FIG8_TEXT)
        assert pres.generator_names == ('a', 'b')
        assert len(pres.relations) == 1
        lhs, rhs = pres.relations[0]
        assert lhs == pres.word_from_string('aBAba')
        assert rhs == pres.word_from_string('baBAb')

    def test_unknot_free_group(self):
        pres = parse_presentation('gens: a\n')
        assert pres.num_generators == 1
        assert pres.relations == ()

    def test_wrong_deficiency(self):
        with pytest.raises(ParseError, match='deficiency'):
            parse_presentation('gens: a b\nrel: ab = ba\nrel: a = b\n')

    def test_unbalanced_relation(self):
        with pytest.raises(ParseError, match='balanced'):
            parse_presentation('gens: a b\nrel: ab = a\n')

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError, match='line 2.*position 1'):
            parse_presentation('gens: a b\nrel: a?b = ba\n')

    def test_duplicate_generator(self):
        with pytest.raises(ParseError, match='distinct'):
            parse_presentation('gens: a a\nrel: aa = aa\n')

    def test_comments_ignored(self):
        pres = parse_presentation('# header\ngens: a b  # two meridians\n'
                                  'rel: ab = ba\n')
        assert pres.num_generators == 2

    def test_blank_before_colon(self):
        assert (parse_presentation('gens : a b\nrel : ab = ba\n')
                == parse_presentation('gens: a b\nrel: ab = ba\n'))

    def test_alpha_override(self):
        pres = parse_presentation('gens: a b\nrel: ab = ba\nalpha: a=2 b=2\n')
        assert pres.alpha == (2, 2)
        assert pres.abelianize(pres.word_from_string('ab')) == 4

    def test_alpha_names_each_generator_once(self):
        with pytest.raises(ParseError, match='^line 3: alpha names a twice$'):
            parse_presentation('gens: a b\nrel: ab = ba\nalpha: a=2 b=1 a=1\n')

    def test_alpha_exponent_capped(self):
        text = 'gens: a b\nrel: ab = ba\nalpha: a=%s b=%s\n'
        assert parse_presentation(text % (50, -50)).alpha == (50, -50)
        for exponent in ('51', '-51', '+0100', '1_000', '9' * 5000):
            with pytest.raises(ParseError, match='^line 3: alpha exponent of '
                               'b must be at most 50 in absolute value$'):
                parse_presentation(text % (1, exponent))

    def test_round_trip(self):
        for text in (FIG8_TEXT,
                     'gens: a\n',
                     'gens: a b c\nrel: ab=ba\nrel: bc=cb\nalpha: a=1 b=2 c=1\n'):
            pres = parse_presentation(text)
            again = parse_presentation(pres.to_text())
            assert again == pres


class TestRelator:

    def test_commutator(self):
        pres = parse_presentation('gens: a b\nrel: ab = ba\n')
        r = relator(*pres.relations[0])
        assert r == pres.word_from_string('abAB')

    def test_figure_eight_relator_length_ten(self):
        pres = parse_presentation(FIG8_TEXT)
        r = pres.relators()[0]
        assert r == pres.word_from_string('aBAbaBabAB')
        assert len(r) == 10

    def test_trivial_relation(self):
        w = Word([1])
        assert relator(w, w).is_identity()


class TestFoxDerivative:

    def test_base_rule(self):
        assert words_equal(fox_derivative(Word([1]), 0), Word())

    def test_inverse_rule(self):
        d = fox_derivative(Word([-1]), 0)
        assert d == -GroupRingElement(Word([-1]))

    def test_product_rule_example(self):
        d = fox_derivative(Word([1, 2]), 1)
        assert words_equal(d, Word([1]))

    def test_figure_eight_golden(self):
        pres = parse_presentation(FIG8_TEXT)
        r = pres.relators()[0]
        w = pres.word_from_string
        expected = (GroupRingElement(Word())
                    - GroupRingElement(w('aBA'))
                    + GroupRingElement(w('aBAb'))
                    + GroupRingElement(w('aBAbaB'))
                    - GroupRingElement(w('aBAbaBabA')))
        assert fox_derivative(r, 0) == expected

    def _random_word(self, rng, num_gens, max_len=20):
        letters = [rng.choice([s * g for g in range(1, num_gens + 1)
                               for s in (1, -1)])
                   for _ in range(rng.randrange(0, max_len + 1))]
        return Word(letters)

    def test_fundamental_identity(self):
        # sum_j dw/dx_j (x_j - 1) == w - 1 for random reduced words
        rng = random.Random(20260811)
        checked = 0
        while checked < 120:
            num_gens = rng.choice([2, 3, 4])
            w = self._random_word(rng, num_gens)
            total = GroupRingElement()
            for j in range(num_gens):
                xj = GroupRingElement(Word([j + 1]))
                total = total + fox_derivative(w, j) * (xj - 1)
            assert total == GroupRingElement(w) - 1
            checked += 1

    def test_derivation_property(self):
        rng = random.Random(99)
        for _ in range(60):
            num_gens = rng.choice([2, 3])
            u = self._random_word(rng, num_gens, 10)
            v = self._random_word(rng, num_gens, 10)
            for j in range(num_gens):
                lhs = fox_derivative(u * v, j)
                rhs = fox_derivative(u, j) + GroupRingElement(u) * fox_derivative(v, j)
                assert lhs == rhs


class TestAbelianize:

    def test_signed_count(self):
        assert abelianize(Word([1, -2, -1]), (1, 1)) == -1

    def test_identity(self):
        assert abelianize(Word(), (1, 1)) == 0

    def test_figure_eight_relator(self):
        pres = parse_presentation(FIG8_TEXT)
        assert pres.abelianize(pres.relators()[0]) == 0


class TestGroupRing:

    def test_no_zero_terms_are_kept(self):
        w = Word([1])
        assert (GroupRingElement(w) - GroupRingElement(w)).is_zero()

    def test_eager_reduction_in_products(self):
        a, ainv = GroupRingElement(Word([1])), GroupRingElement(Word([-1]))
        assert a * ainv == GroupRingElement(1)

    def test_ring_axioms_spot(self):
        rng = random.Random(5)
        elems = []
        for _ in range(6):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                w = Word([rng.choice([1, -1, 2, -2])
                          for _ in range(rng.randrange(0, 5))])
                terms[w] = terms.get(w, 0) + rng.randrange(-3, 4)
            elems.append(GroupRingElement(terms))
        for x in elems:
            for y in elems:
                for z in elems:
                    assert (x + y) * z == x * z + y * z
                    assert (x * y) * z == x * (y * z)
