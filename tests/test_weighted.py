"""The tuple algebra's inline kernels against its generic path, and the
work a fill and cancel does in it."""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from mhom import rational, spaces
from mhom.cech import Nerve, zigzag_cancel, zigzag_fill
from mhom.chains import LipschitzChain
from mhom.complexes import MetricComplex
from mhom.currents import PolyhedralCurrent
from mhom.geometry import barycentric_subdivide, simplex_boundary_terms

TETRAHEDRON = MetricComplex(
    3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    [list(face) for k in (1, 2, 3, 4) for face in combinations(range(4), k)])

# rational.centroid calls of the seeded fill and cancel below, on a freshly
# loaded circle: the cover split of the cancel and its final boundary check
# read one refinement of the chain (43 when each refined it again)
FILL_AND_CANCEL_CENTROIDS = 26


def seeded(seed, degree, as_chain):
    """A chain of the tetrahedron or a current of degree k on four points
    with small coordinates: repeated points, reordered copies whose facets
    cancel, and input terms that cancel each other."""
    rng = random.Random(seed)
    pool = [tuple(Fraction(rng.randint(0, 2), 6) for _ in range(3))
            for _ in range(4)]
    terms = {}
    for _ in range(rng.randint(0, 8)):
        tup = tuple(rng.choice(pool) for _ in range(degree + 1))
        w = rng.choice([-2, -1, 1, 2])
        for copy, sign in ((tup, 1), (tup[::-1], rng.choice([-1, 0, 1])),
                           (tup, -rng.randint(0, 1))):
            terms[copy] = terms.get(copy, 0) + sign * w
    if as_chain:
        return LipschitzChain(TETRAHEDRON, degree, terms)
    return PolyhedralCurrent(3, degree, terms)


def generic(x, fn):
    """Nonzero terms of x._expand(fn), in insertion order."""
    return [(tup, w) for tup, w in x._expand(fn).items() if w]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 3), st.booleans())
def test_kernels_write_the_generic_terms_in_order(seed, degree, as_chain):
    x = seeded(seed, degree, as_chain)
    b, s = x.boundary(), x.subdivide()
    assert type(b) is type(s) is type(x)
    assert (b.degree, s.degree) == (max(degree - 1, 0), degree)
    assert list(b.terms.items()) == (
        generic(x, simplex_boundary_terms) if degree else [])
    assert list(s.terms.items()) == generic(x, barycentric_subdivide)


def test_a_chain_keeps_its_refinement():
    z = seeded(5, 1, True)
    assert z.subdivide() is z.subdivide()
    assert z.subdivide(2) is z.subdivide().subdivide()
    assert z.subdivide().level == 1 and z.subdivide(2).level == 2
    assert (z + z).subdivide() is not z.subdivide()


def test_fill_and_cancel_refine_each_chain_once(count_calls):
    s1 = spaces.load_space("s1")  # fresh: no subdivision cached yet
    cover = spaces.load_cover(s1, "s1_arcs3")
    nerve = Nerve(cover, max_arity=3)
    items = spaces.random_circle_cycle(s1, random.Random(7))
    calls = count_calls(rational, "centroid")
    T = PolyhedralCurrent.from_tuples(3, items, 1)
    res = zigzag_fill(T, cover, nerve=nerve)
    z = res.chain - LipschitzChain.from_simplices(s1, items)
    w = zigzag_cancel(z, res.filling, cover, nerve=nerve)
    assert len(calls) <= FILL_AND_CANCEL_CENTROIDS
    assert w.boundary() == z
