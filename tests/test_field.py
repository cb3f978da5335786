import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistvol import EmbeddingError, NumberField

from test_kernel import FIELDS, PROPERTY


def random_element(field, rng, span=6):
    return field.element([Fraction(rng.randrange(-span, span + 1),
                                   rng.randrange(1, 4))
                          for _ in range(field.degree)])


class TestArithmetic:

    def test_u_squared(self, ufield):
        u = ufield.generator
        assert u * u == ufield.element([-1, -1])

    def test_u_inverse(self, ufield):
        u = ufield.generator
        assert u * (-1 - u) == ufield.one
        assert 1 / u == -1 - u

    def test_additive_identity(self, ufield):
        u = ufield.generator
        assert u + ufield.zero == u

    def test_minimal_polynomial_annihilates(self, ufield):
        u = ufield.generator
        assert (u * u + u + 1).is_zero()

    def test_division_by_zero(self, ufield):
        with pytest.raises(ZeroDivisionError):
            ufield.one / ufield.zero

    def test_rational_field_degenerates_to_fractions(self, qfield):
        a = qfield.from_rational(Fraction(3, 2))
        b = qfield.from_rational(Fraction(-1, 3))
        assert (a * b).as_rational() == Fraction(-1, 2)
        assert (a / b).as_rational() == Fraction(-9, 2)
        assert qfield.generator.is_zero()

    def test_power_including_negative(self, ufield):
        u = ufield.generator
        assert u ** 3 == ufield.one       # u is a cube root of unity
        assert u ** -1 == 1 / u

    def test_field_axioms_random(self, ufield, qfield):
        rng = random.Random(11)
        for field in (ufield, qfield):
            elems = [random_element(field, rng) for _ in range(8)]
            for x in elems:
                for y in elems:
                    for z in elems:
                        assert (x + y) + z == x + (y + z)
                        assert x * (y + z) == x * y + x * z
                        assert (x * y) * z == x * (y * z)
                    assert x * y == y * x
                if not x.is_zero():
                    assert x * (1 / x) == field.one

    def test_cross_field_operations_rejected(self, ufield, qfield):
        with pytest.raises(ValueError):
            ufield.one + qfield.one


class TestZeroTest:

    def test_zero_vector(self, ufield):
        assert ufield.zero.is_zero()

    def test_generator_nonzero(self, ufield):
        assert not ufield.generator.is_zero()

    def test_symbolic_combination(self, ufield):
        u = ufield.generator
        assert (u ** 2 + u + 1).is_zero()


class TestEmbedding:

    def test_u_value(self, ufield):
        z = ufield.embed(ufield.generator, 128)
        with mpmath.workprec(128):
            expected = mpmath.mpc(mpmath.mpf(-1) / 2, mpmath.sqrt(3) / 2)
            assert abs(z - expected) < mpmath.mpf(2) ** (-120)

    def test_rational_embeds_exactly(self, ufield):
        z = ufield.embed(ufield.from_rational(Fraction(3, 2)), 64)
        assert z.real == 1.5 and z.imag == 0

    def test_minimal_polynomial_value_tiny(self, ufield):
        u = ufield.generator
        for bits in (64, 128, 256):
            z = ufield.embed(u * u + u + 1, bits)
            assert abs(z) < mpmath.mpf(2) ** (1 - bits)

    def test_ring_homomorphism(self, ufield):
        rng = random.Random(3)
        bits = 128
        for _ in range(30):
            a = random_element(ufield, rng)
            b = random_element(ufield, rng)
            za = ufield.embed(a, bits)
            zb = ufield.embed(b, bits)
            zab = ufield.embed(a * b, bits)
            with mpmath.workprec(bits):
                bound = mpmath.mpf(2) ** (8 - bits) * (1 + abs(za * zb))
                assert abs(zab - za * zb) < bound

    def test_precision_doubling_stability(self, ufield):
        rng = random.Random(4)
        for _ in range(10):
            a = random_element(ufield, rng)
            z1 = ufield.embed(a, 128)
            z2 = ufield.embed(a, 256)
            assert abs(z1 - z2) <= mpmath.mpf(2) ** (-120) * (1 + abs(z2))

    def test_determinism(self, ufield):
        a = ufield.element([Fraction(1, 3), Fraction(-2, 7)])
        assert ufield.embed(a, 128) == ufield.embed(a, 128)

    def test_minimum_precision_enforced(self, ufield):
        with pytest.raises(ValueError):
            ufield.embed(ufield.one, 32)

    def test_conjugate_hint_picks_other_root(self):
        lower = NumberField([1, 1, 1], ('-0.5', '-0.87'))
        z = lower.embed(lower.generator, 128)
        assert z.imag < 0

    @pytest.mark.parametrize('hint, want', [
        # Newton's method from either hint lands on another root
        (('0.787', '-1.494'), -1),      # -0.630 - 1.091i
        (('0.455', '0.866'), 1),        # -0.630 + 1.091i
        (('1.26', '0'), 0),             # the real root
    ])
    def test_nearest_root_of_x3_minus_2(self, hint, want):
        field = NumberField([-2, 0, 0, 1], hint)
        with mpmath.workprec(128):
            cbrt2 = mpmath.cbrt(2)
            root = cbrt2 if want == 0 else cbrt2 * mpmath.expjpi(
                mpmath.mpf(2 * want) / 3)
            assert abs(field.root(64) - root) < mpmath.mpf(2) ** -60
            assert abs(field.root(128) - root) < mpmath.mpf(2) ** -120

    def test_equidistant_hint_is_an_error_at_first_use(self):
        # 3 + 1e-11 i is nearly as near -i as i
        field = NumberField([1, 0, 1], ('3', '0.00000000001'))
        with pytest.raises(EmbeddingError, match='selects no root'):
            field.embed(field.generator, 64)

    def test_roots_not_found_at_load(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError('polyroots ran')

        monkeypatch.setattr(mpmath, 'polyroots', refuse)
        field = NumberField([-2, 0, 0, 1], ('0.787', '-1.494'))
        with pytest.raises(AssertionError, match='polyroots ran'):
            field.root(64)

    def test_unconverged_roots_are_an_embedding_error(self, monkeypatch):
        def diverge(*args, **kwargs):
            raise mpmath.libmp.NoConvergence

        monkeypatch.setattr(mpmath, 'polyroots', diverge)
        field = NumberField([-2, 0, 0, 1], ('1.26', '0'))
        with pytest.raises(EmbeddingError, match='did not converge'):
            field.root(64)


class TestHash:
    """Equal elements hash alike; a rational one like its rational value."""

    def test_rational_elements_hash_like_rationals(self, ufield):
        assert len({ufield.one, 1}) == 1
        assert hash(ufield.from_rational(Fraction(-3, 4))) == \
            hash(Fraction(-3, 4))

    @PROPERTY
    @given(data=st.data())
    def test_equal_implies_equal_hash(self, data):
        field = data.draw(st.sampled_from(sorted(FIELDS)).map(FIELDS.get))
        # a small pool, so equal pairs are common
        pool = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2),
                                Fraction(7, 3)])
        x = field.element(data.draw(st.lists(pool, min_size=1,
                                             max_size=field.degree)))
        y = field.element(data.draw(st.lists(pool, min_size=1,
                                             max_size=field.degree)))
        if x == y:
            assert hash(x) == hash(y)
        if x.is_rational():
            value = x.as_rational()
            for other in (value, field.from_rational(value)) + (
                    (int(value),) if value.denominator == 1 else ()):
                assert x == other and hash(x) == hash(other)


class TestCubicField:
    """Degree-3 sanity: the pipeline is not wired to degree <= 2."""

    def test_generator_cubes_to_two(self, cubic):
        c = cubic.generator
        assert c ** 3 == cubic.from_rational(2)

    def test_inverse(self, cubic):
        c = cubic.generator
        x = 1 + c + c * c
        assert x * (1 / x) == cubic.one

    def test_embedding_is_real_cube_root(self, cubic):
        z = cubic.embed(cubic.generator, 128)
        with mpmath.workprec(128):
            assert abs(z - mpmath.cbrt(2)) < mpmath.mpf(2) ** -120

    def test_axioms_random(self, cubic):
        rng = random.Random(12)
        elems = [random_element(cubic, rng, span=3) for _ in range(5)]
        for x in elems:
            for y in elems:
                assert x * y == y * x
                for z in elems:
                    assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert x * (1 / x) == cubic.one


class TestValidation:

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError, match='monic'):
            NumberField([1, 1, 2])

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match='degree'):
            NumberField([1])

    @pytest.mark.parametrize('min_poly, message', [
        ([0, 0, 1], 'not squarefree'),               # x^2
        ([1, 2, 1], 'not squarefree'),               # (x + 1)^2
        ([1, 0, 2, 0, 1], 'not squarefree'),         # (x^2 + 1)^2
        ([-1, 0, 1], 'has the root -1'),             # (x - 1)(x + 1)
        ([0, 1, 1], 'has the root 0'),               # x (x + 1)
        ([-6, 1, 1], 'has the root -3'),             # (x - 2)(x + 3)
        ([-2, 1, 0, 0, 1], 'has the root 1'),        # x^4 + x - 2
        ([4, 0, 0, -4, 0, 0, 1], 'not squarefree'),  # (x^3 - 2)^2
    ])
    def test_reducible_rejected(self, min_poly, message):
        with pytest.raises(ValueError, match=message):
            NumberField(min_poly, ('0.3', '0.9'))

    @pytest.mark.parametrize('min_poly, hint', [
        ([1, 1, 1], ('-0.5', '0.87')),
        ([-2, 0, 0, 1], ('1.26', '0')),
        ([-1, -1, 0, 1], ('1.32', '0')),             # x^3 - x - 1
        ([1, 0, 0, 0, 1], ('0.7', '0.7')),           # x^4 + 1
    ])
    def test_irreducible_accepted(self, min_poly, hint):
        assert NumberField(min_poly, hint).degree == len(min_poly) - 1

    def test_bad_hint_rejected(self):
        # real start on a polynomial with no real roots never converges
        with pytest.raises(EmbeddingError):
            NumberField([1, 1, 1], ('5', '0'))
