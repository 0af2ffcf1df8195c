import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mhom import spaces
from mhom.cech import split
from mhom.chaincomplex import homology_data
from mhom.chains import LipschitzChain, chain_from_vector, chain_to_vector
from mhom.complexes import PLMap
from mhom.errors import InputError
from mhom.weighted import WeightedSimplices

HALF = Fraction(1, 2)


def circle_cycle(s1):
    a, b, c = s1.vertices
    return LipschitzChain.from_simplices(s1, [(1, (a, b)), (1, (b, c)),
                                              (1, (c, a))])


def random_chain(complex_, degree, rng, span=5):
    basis = complex_.chain_basis()[degree]
    items = []
    for s in basis:
        coeff = rng.randrange(-span, span + 1)
        if coeff:
            items.append((coeff, complex_.points_of(s)))
    if not items:
        items.append((1, complex_.points_of(basis[0])))
    return LipschitzChain.from_simplices(complex_, items)


def assert_algebra_adopts_terms(a, b, cover, validations):
    """Terms built from valid terms are adopted, never validated again:
    validations lists the calls of the validating constructor."""
    before = dict(a.terms)
    ops = {"+": lambda: a + b, "-": lambda: a - b, "scale": lambda: a.scale(3),
           "boundary": a.boundary, "subdivide": a.subdivide,
           "reduce": a.reduce, "split": lambda: split(a, cover)}
    for name, op in ops.items():
        validations.clear()
        op()
        assert validations == [], name
    zero = a - a
    assert zero.terms == {} and zero.is_zero()
    assert a.terms == before
    parts = split(a, cover).values()
    owned = {id(part.terms) for part in parts}
    assert len(owned) == len(parts) and id(a.terms) not in owned


def test_algebra_keeps_the_dicts_it_builds(torus, torus_balls, count_calls):
    rng = random.Random(14)
    assert_algebra_adopts_terms(random_chain(torus, 1, rng),
                                random_chain(torus, 1, rng), torus_balls,
                                count_calls(WeightedSimplices, "__init__"))


def test_difference_is_sum_with_the_negative(torus):
    """a - b is built in one pass, with the terms of a + (-b) in their
    order, also when align must first subdivide one side."""
    rng = random.Random(16)
    for _ in range(8):
        a, b = random_chain(torus, 1, rng), random_chain(torus, 1, rng)
        for x, y in ((a, b), (a.subdivide(), b), (a, b.subdivide(2)),
                     (a, a), (a + b, a)):
            diff = x - y
            assert list(diff.terms.items()) == \
                list((x + (-y)).terms.items())
            assert diff.level == max(x.level, y.level)


def test_boundary_squares_to_zero_seeded(torus, s2):
    rng = random.Random(11)
    for _ in range(25):
        for cx, k in ((torus, 1), (torus, 2), (s2, 1), (s2, 2)):
            c = random_chain(cx, k, rng)
            assert c.boundary().boundary().is_zero()


def test_subdivision_commutes_with_boundary(torus):
    rng = random.Random(12)
    for _ in range(10):
        c = random_chain(torus, 2, rng)
        assert c.subdivide().boundary() == c.boundary().subdivide()


def test_edge_splits_into_halves(s1):
    a, b = s1.vertices[0], s1.vertices[1]
    mid = tuple((x + y) * HALF for x, y in zip(a, b))
    whole = LipschitzChain.from_simplices(s1, [(1, (a, b))])
    halves = LipschitzChain.from_simplices(s1, [(1, (a, mid)),
                                                (1, (mid, b))])
    assert whole.subdivide().canonical() == halves.canonical()


def test_reversed_edge_is_negated(s1):
    a, b = s1.vertices[0], s1.vertices[1]
    fwd = LipschitzChain.from_simplices(s1, [(1, (a, b))])
    rev = LipschitzChain.from_simplices(s1, [(1, (b, a))])
    assert fwd.equal_in_limit(-rev)
    assert not fwd.equal_in_limit(rev)


def test_degenerate_simplex_vanishes_in_limit(s1):
    a = s1.vertices[0]
    squashed = LipschitzChain(s1, 1, {(a, a): 3})
    assert squashed.equal_in_limit(LipschitzChain.zero(s1, 1))


def test_pushforward_identity_and_constant(torus):
    rng = random.Random(13)
    n = torus.ambient_dim
    ident = PLMap.affine([[int(i == j) for j in range(n)] for i in range(n)])
    const = PLMap.constant(torus.vertices[0])
    for _ in range(5):
        c = random_chain(torus, 1, rng)
        assert c.pushforward(ident) == c
        img = c.pushforward(const)
        assert img.equal_in_limit(LipschitzChain.zero(torus, 1))


def test_pushforward_naturality_square():
    from test_complexes import unit_square
    sq = unit_square()
    shrink = PLMap.affine([[HALF, 0], [0, HALF]], offset=(Fraction(1, 4),
                                                          Fraction(1, 4)))
    rng = random.Random(14)
    for _ in range(10):
        c = random_chain(sq, 2, rng)
        lhs = c.pushforward(shrink).boundary()
        rhs = c.boundary().pushforward(shrink)
        assert lhs.equal_in_limit(rhs)


def test_cone_boundary_identity(s1):
    z = circle_cycle(s1)
    apex = (Fraction(0), Fraction(0), Fraction(0))
    # the apex lies off the carrier; cone() does not check the carrier
    cone = z.cone(apex)
    back = cone.boundary()
    assert back == z - z.boundary().cone(apex)
    assert back == z


def test_subdivision_respects_carrier(torus):
    rng = random.Random(16)
    c = random_chain(torus, 2, rng).subdivide(2)
    for tup in c.terms:
        assert torus.find_containing_simplex(tup) is not None


def test_split_by_cover_buckets(s1, arcs2):
    z = circle_cycle(s1)
    parts = split(z, arcs2)
    assert set(parts) <= {(0,), (1,)}
    for (i,), part in parts.items():
        assert all(arcs2.simplex_inside(i, tup) for tup in part.terms)
        assert not part.is_zero()
    total = LipschitzChain.zero(s1, 1)
    for part in parts.values():
        total = total + part
    assert total == z


def test_chain_arithmetic(s1):
    z = circle_cycle(s1)
    assert (z - z).is_zero()
    assert z.scale(2) == z + z
    assert z.scale(0).is_zero()
    a, b = z.align(z.subdivide())
    assert a.level == b.level == 1
    assert a == b


def test_from_simplices_rejects_mixed_degree(s1):
    a, b, c = s1.vertices
    with pytest.raises(InputError):
        LipschitzChain.from_simplices(s1, [(1, (a, b)), (1, (c,))])


def test_vector_roundtrip(torus):
    rng = random.Random(17)
    basis = torus.chain_basis()[1]
    vec = [rng.randrange(-4, 5) for _ in basis]
    c = chain_from_vector(torus, 1, vec)
    assert chain_to_vector(c) == vec


def _readback_cases(name, rng):
    """Generators in every degree, as built and subdivided once, and one
    seeded vector in degrees 1 and 2; each plus one piece of its first
    refinement (a generator and its subdivision then give one chain); all
    of them also negated."""
    complex_ = spaces.load_space(name)
    C, _ = complex_.chain_complex()
    basis = complex_.chain_basis()
    cases = []
    for k in range(len(C.dims)):
        for g in homology_data(C, k).generators():
            c = chain_from_vector(complex_, k, g)
            cases += [c, c.subdivide()]
    for k in (1, 2):
        if k < len(basis):
            cases.append(chain_from_vector(
                complex_, k, [rng.randrange(-3, 4) for _ in basis[k]]))
    for c in [c for c in cases if c.level == 0]:
        first = c.subdivide()
        if first.terms:
            piece = next(iter(first.terms))
            cases.append(c + LipschitzChain(complex_, c.degree, {piece: 1},
                                            first.level))
    return cases + [-c for c in cases]


@pytest.mark.parametrize("name", ["torus", "klein", "rp2", "wedge", "s2"])
def test_readback_matches_column_peeling(name):
    rng = random.Random(18)
    results = []
    for c in _readback_cases(name, rng):
        got = chain_to_vector(c)
        assert got == oracles.chain_to_vector(c)
        results.append(got)
    assert None in results
    assert any(r is not None and any(r) for r in results)


def test_readback_builds_no_unit_chains(torus, monkeypatch):
    C, _ = torus.chain_complex()
    gens = [chain_from_vector(torus, 1, g)
            for g in homology_data(C, 1).generators()]
    calls = []
    real = LipschitzChain.from_simplices

    def counted(complex_, items):
        calls.append(1)
        return real(complex_, items)

    monkeypatch.setattr(LipschitzChain, "from_simplices",
                        staticmethod(counted))
    assert all(chain_to_vector(g) is not None for g in gens)
    assert len(gens) == 2 and len(calls) <= 2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=8, max_size=8))
def test_boundary_identities_property(coeffs):
    from mhom import spaces
    s2 = spaces.load_space("s2")
    basis = s2.chain_basis()[2]
    items = [(c, s2.points_of(s)) for c, s in zip(coeffs, basis) if c]
    if not items:
        return
    chain = LipschitzChain.from_simplices(s2, items)
    assert chain.boundary().boundary().is_zero()
    assert chain.subdivide().boundary() == chain.boundary().subdivide()
