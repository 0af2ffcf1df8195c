import random
from fractions import Fraction

import pytest

from mhom.bracket import (bracket, bracket_inverse_points,
                          brackets_of_generators, pairing_matrix)
from mhom.chaincomplex import homology_data
from mhom.chains import LipschitzChain
from mhom.complexes import PLMap
from mhom.currents import PolyhedralCurrent
from mhom.errors import InputError
from mhom.geometry import det_fraction
from mhom.rational import RadicalSum
from mhom import complexes, spaces

from test_chains import circle_cycle, random_chain

F = Fraction
HALF = F(1, 2)


def test_edge_becomes_segment_of_matching_mass(s1):
    a, b = s1.vertices[0], s1.vertices[1]
    edge = LipschitzChain.from_simplices(s1, [(1, (a, b))])
    T = bracket(edge)
    assert T.mass() == RadicalSum.sqrt_of(2)
    assert T.degree == 1
    assert set(T.pieces) == {(a, b)}


def test_boundary_naturality_seeded(torus, s2):
    rng = random.Random(31)
    for _ in range(20):
        for cx, k in ((torus, 2), (s2, 2), (torus, 1)):
            c = random_chain(cx, k, rng)
            assert bracket(c.boundary()).equals(bracket(c).boundary())


def test_pushforward_naturality_seeded():
    from test_complexes import unit_square
    sq = unit_square()
    shrink = PLMap.affine([[HALF, 0], [0, HALF]],
                          offset=(F(1, 4), F(1, 4)))
    rng = random.Random(32)
    for _ in range(10):
        c = random_chain(sq, 2, rng)
        assert bracket(c.pushforward(shrink)).equals(
            bracket(c).pushforward(shrink))


def test_refinement_invariance(torus):
    rng = random.Random(33)
    for _ in range(8):
        c = random_chain(torus, 1, rng)
        assert bracket(c.subdivide()).equals(bracket(c))
        assert bracket(c.subdivide(2)).equals(bracket(c))


def test_degenerate_chain_maps_to_zero(s1):
    a = s1.vertices[0]
    squashed = LipschitzChain(s1, 1, {(a, a): 4})
    assert bracket(squashed).is_zero()


def test_degree_zero_roundtrip(s1):
    rng = random.Random(34)
    pts = s1.sample_vertices(1)
    for _ in range(20):
        terms = {}
        for p in rng.sample(pts, 3):
            terms[(p,)] = rng.randrange(-5, 6)
        c = LipschitzChain(s1, 0, {t: w for t, w in terms.items() if w})
        T = bracket(c)
        back = bracket_inverse_points(T, s1)
        assert back == c
        assert bracket(back).equals(T)


def test_inverse_rejects_positive_degree(s1):
    T = PolyhedralCurrent.zero(s1.ambient_dim, 1)
    with pytest.raises(InputError):
        bracket_inverse_points(T, s1)


def test_circle_pairing_half_winding(s1):
    forms = spaces.pairing_forms("s1", s1)
    z = circle_cycle(s1)
    val = bracket(z).evaluate(*forms[0])
    assert abs(val) == HALF
    assert bracket(z.scale(3)).evaluate(*forms[0]) == 3 * val
    assert bracket(-z).evaluate(*forms[0]) == -val


def test_generator_pairings(s1, torus):
    forms1 = spaces.pairing_forms("s1", s1)
    gens1 = brackets_of_generators(s1, 1, homology_data(s1.chain_complex()[0], 1))
    M1 = pairing_matrix(gens1, forms1)
    assert len(M1) == 1 and abs(M1[0][0]) == HALF
    assert det_fraction(M1) != 0

    forms2 = spaces.pairing_forms("torus", torus)
    gens2 = brackets_of_generators(torus, 1,
                                   homology_data(torus.chain_complex()[0], 1))
    M2 = pairing_matrix(gens2, forms2)
    assert len(M2) == 2
    vals = sorted(sorted(abs(v) for v in row) for row in M2)
    assert vals == [[0, HALF], [0, HALF]]
    assert det_fraction(M2) != 0


def test_torus_pairing_builds_no_locator(torus, monkeypatch):
    # cellwise forms locate points with the torus's own locators
    gens = brackets_of_generators(torus, 1,
                                  homology_data(torus.chain_complex()[0], 1))
    torus.tops_holding(torus.vertices[0])
    built = []
    real = complexes._TopLocator.__init__

    def counted(self, verts):
        built.append(verts)
        real(self, verts)

    monkeypatch.setattr(complexes._TopLocator, "__init__", counted)
    M = pairing_matrix(gens, spaces.pairing_forms("torus", torus))
    assert len(M) == 2 and det_fraction(M) != 0
    assert built == []


def test_singular_pairing_detected(s1):
    forms = spaces.pairing_forms("s1", s1)
    zero = [PolyhedralCurrent.zero(s1.ambient_dim, 1)]
    assert det_fraction(pairing_matrix(zero, forms)) == 0


def test_generator_brackets_are_cycles(torus):
    gens = brackets_of_generators(torus, 1,
                                  homology_data(torus.chain_complex()[0], 1))
    assert len(gens) == 2
    for T in gens:
        assert T.boundary().is_zero()
        assert not T.is_zero()
