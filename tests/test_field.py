import random
import time
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistvol import EmbeddingError, NumberField
from twistvol.field import _reject_reducible

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
        assert u ** 0 == ufield.one
        assert u ** -2 * u ** 2 == ufield.one
        with pytest.raises(ZeroDivisionError,
                           match='^division by zero in the number field$'):
            ufield.zero ** -1

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
        ([27, 0, 27, 0, 9, 0, 1], 'not squarefree'),  # (x^2 + 3)^3
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


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def fraction_gcd(a, b):
    """A gcd over Q of two ascending coefficient lists: Euclid on Fractions."""
    a = _trim([Fraction(c) for c in a])
    b = _trim([Fraction(c) for c in b])
    while b:
        while len(a) >= len(b):
            q, k = a[-1] / b[-1], len(a) - len(b)
            for i, y in enumerate(b):
                a[k + i] -= q * y
            _trim(a)
        a, b = b, a
    return a


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def monic(degree):
    return st.lists(st.integers(-5, 5), min_size=degree,
                    max_size=degree).map(lambda c: c + [1])


@st.composite
def monic_polys(draw):
    """Monic integer m of degree 2..6: random, a product of two factors,
    or a square f^2 times a cofactor."""
    kind = draw(st.sampled_from(['random', 'product', 'square']))
    if kind == 'random':
        return draw(st.integers(2, 6).flatmap(monic))
    f = draw(st.integers(1, 3).flatmap(monic))
    if kind == 'product':
        return poly_mul(f, draw(st.integers(1, 3).flatmap(monic)))
    rest = draw(st.integers(0, 8 - 2 * len(f)).flatmap(monic))
    return poly_mul(poly_mul(f, f), rest)


class TestSquarefreeScreen:
    """The Sylvester-resultant screen against Euclid's gcd(m, m')."""

    @PROPERTY
    @given(monic_polys())
    def test_rejects_exactly_the_non_squarefree(self, m):
        deriv = [i * c for i, c in enumerate(m)][1:]
        squarefree = len(fraction_gcd(m, deriv)) == 1
        try:
            NumberField(m, ('0.3', '0.9'))
            message = ''
        except ValueError as exc:
            message = str(exc)
        assert ('not squarefree' in message) == (not squarefree), m

    def test_one_field_is_built_per_construction(self, monkeypatch):
        # the screen runs on ints: no second (rational) field is built
        calls = []
        init = NumberField.__init__

        def counting(self, *args, **kwargs):
            calls.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(NumberField, '__init__', counting)
        NumberField([-1, 2, -1, 1], ('0.215', '1.307'))
        assert len(calls) == 1


def trial_division_root(m):
    """The least integer root of the monic m by trial division over the
    divisors of m_0, the screen's former method; 0 when m_0 = 0, None
    when m has no integer root."""
    m0 = abs(m[0])
    if not m0:
        return 0
    divisors = {d for k in range(1, isqrt(m0) + 1) if m0 % k == 0
                for d in (k, m0 // k)}
    return next((r for r in sorted(divisors | {-d for d in divisors})
                 if sum(c * r ** i for i, c in enumerate(m)) == 0), None)


@st.composite
def rooted_polys(draw):
    """Monic integer m of degree 2..6; half of them (x - r) times a monic
    cofactor, so they have the integer root r."""
    degree = draw(st.integers(2, 6))
    if draw(st.booleans()):
        root = draw(st.integers(-60, 60))
        cofactor = draw(st.lists(st.integers(-30, 30), min_size=degree - 1,
                                 max_size=degree - 1)) + [1]
        return poly_mul([-root, 1], cofactor)
    return draw(st.lists(st.integers(-300, 300), min_size=degree,
                         max_size=degree)) + [1]


class TestIntegerRootScreen:
    """Roots mod p lifted by Newton's method, against trial division."""

    @settings(PROPERTY, max_examples=200)
    @given(rooted_polys())
    def test_names_the_least_integer_root(self, m):
        deriv = [i * c for i, c in enumerate(m)][1:]
        if len(fraction_gcd(m, deriv)) > 1:
            with pytest.raises(ValueError, match='not squarefree'):
                _reject_reducible(tuple(m))
            return
        root = trial_division_root(m)
        if root is None:
            _reject_reducible(tuple(m))
        else:
            with pytest.raises(ValueError) as info:
                _reject_reducible(tuple(m))
            assert str(info.value) == ('minimal polynomial %r has the root '
                                       '%d; it is not irreducible' % (m, root))

    def test_large_constant_term_loads(self):
        # x^2 + x + (10^20 + 3): trial division would run to 10^10
        start = time.perf_counter()
        field = NumberField([10 ** 20 + 3, 1, 1], ('-0.5', '1e10'))
        assert time.perf_counter() - start < 1.0
        assert field.degree == 2

    def test_large_root_is_named(self):
        r = 10 ** 15 + 37
        m = poly_mul([-r, 1], [1, 1, 1])          # (x - r)(x^2 + x + 1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match='has the root %d;' % r):
            NumberField(m, ('-0.5', '0.87'))
        assert time.perf_counter() - start < 1.0

    def test_zero_constant_term_names_zero(self):
        # x (x + 1)(x^2 + 1) has the least root -1; x | m is named first
        with pytest.raises(ValueError, match='has the root 0;'):
            _reject_reducible((0, 1, 1, 1, 1))

    def test_roots_near_the_height_bound(self):
        # (x - r)(x^2 + x + 1) has height 1 + max |m_i| = r for r >= 2, so
        # the lift must pass 2r before its symmetric residue can be r
        for r in range(2, 300):
            m = tuple(poly_mul([-r, 1], [1, 1, 1]))
            with pytest.raises(ValueError, match='has the root %d;' % r):
                _reject_reducible(m)
