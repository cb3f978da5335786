import time

import pytest

from twistvol import (Matrix, NumberField, Representation, TwistConfig,
                      parse_job, parse_presentation, twisted_alexander)

FIG8_TEXT = 'gens: a b\nrel: aBAba = baBAb\n'

# A Wirtinger presentation of the figure-eight: four arcs and three of
# its four crossing relations.  With c = abA, aBAba = baBAb reads
# C b a = b C b, that is cbC = baB.
FIG8_WIRTINGER_TEXT = ('gens: a b c d\nrel: c = abA\nrel: d = cbC\n'
                       'rel: d = baB\n')

# The two-bridge knot K(7/3) with its Riley parabolic representation over
# the cubic field Q[u]/(u^3 - u^2 + 2u - 1); the embedding is the root with
# the largest imaginary part.
K7_3_TEXT = '''\
gens: a b
rel: abABaba = babABab
field: -1 2 -1 1
embed: 0.215079854501 1.307141278682
rep a: [[[1,0,0],[1,0,0]],[[0,0,0],[1,0,0]]]
rep b: [[[1,0,0],[0,0,0]],[[0,-1,0],[1,0,0]]]
'''


def fig8_wirtinger(rep):
    """The Wirtinger presentation, with rho(c) = rho(abA) and rho(d) =
    rho(baB) for the images of rep on the two-generator presentation."""
    pres = parse_presentation(FIG8_WIRTINGER_TEXT)
    images = dict(zip(rep.names, rep.images))
    images.update((x, rep.evaluate(pres.word_from_string(w)))
                  for x, w in (('c', 'abA'), ('d', 'baB')))
    return pres, Representation(pres, images)


# field: and embed: lines of the K(9/7) and K(17/5) Riley jobs, of
# degree 4 and 8
K9_7_FIELD = ([1, 2, 7, 5, 1], ('-0.100768253590', '0.400531753519'))
K17_5_FIELD = ([1, -4, -6, 14, 3, -22, 19, -7, 1],
               ('1.679246255265', '0.851241638634'))


def make_ufield():
    return NumberField([1, 1, 1], ('-0.5', '0.8660254038'))


def make_fig8_rep(field, presentation):
    u = field.generator
    rho_a = Matrix(field, [[1, 1], [0, 1]])
    rho_b = Matrix(field, [[field.one, field.zero], [-u, field.one]])
    return Representation(presentation, {'a': rho_a, 'b': rho_b})


@pytest.fixture(scope='session')
def qfield():
    return NumberField.rationals()


@pytest.fixture(scope='session')
def ufield():
    return make_ufield()


@pytest.fixture(scope='session')
def cubic():
    # x^3 - 2 with the real root; 1 + x has norm 3, so it is no unit of Z[x]
    return NumberField([-2, 0, 0, 1], ('1.26', '0'))


@pytest.fixture(scope='session')
def fig8():
    return parse_presentation(FIG8_TEXT)


@pytest.fixture(scope='session')
def fig8_rep(ufield, fig8):
    return make_fig8_rep(ufield, fig8)


@pytest.fixture(scope='session')
def k7_3():
    """JobFile of K(7/3): a 14-letter relator over a cubic field."""
    return parse_job(K7_3_TEXT)


class InvariantSweep(dict):
    """dict n -> TwistedAlexander, remembering how long the sweep took."""
    elapsed = None


@pytest.fixture(scope='session')
def fig8_invariants(fig8, fig8_rep):
    """Unit-normalized invariants for n = 2..15, computed once per run."""
    start = time.perf_counter()
    sweep = InvariantSweep((n, twisted_alexander(TwistConfig(fig8, fig8_rep, n)))
                           for n in range(2, 16))
    sweep.elapsed = time.perf_counter() - start
    return sweep
