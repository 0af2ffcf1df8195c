import random
from fractions import Fraction

import pytest

from mhom import chaincomplex, intlinalg, spaces
from mhom.chaincomplex import (connecting_homomorphism, exact_at,
                               hom_matrix_columns, homology_data)
from mhom.complexes import MetricComplex

from oracles import (betti_numbers, dense_smith_normal_form,
                     simplicial_boundary_rows)

GOLDEN = {
    "s1": ["Z", "Z"],
    "s2": ["Z", "0", "Z"],
    "torus": ["Z", "Z^2", "Z"],
    "rp2": ["Z", "Z/2", "0"],
    "klein": ["Z", "Z + Z/2", "0"],
    "wedge": ["Z", "Z^2"],
    "disc_pair": ["Z", "0", "0"],
    "annulus_pair": ["Z", "Z", "0"],
}

GOLDEN_RELATIVE = {
    ("disc_pair", "boundary"): ["0", "0", "Z"],
    ("annulus_pair", "outer"): ["0", "0", "0"],
}


def _groups(C):
    return [str(homology_data(C, k).group) for k in range(len(C.dims))]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_homology(name):
    c = spaces.load_space(name)
    C, _ = c.chain_complex()
    C.validate()
    assert _groups(C) == GOLDEN[name]


@pytest.mark.parametrize("name,sub", sorted(GOLDEN_RELATIVE))
def test_golden_relative_homology(name, sub):
    pair = spaces.load_space(name).relative_pair(sub)
    assert _groups(pair.quotient_complex) == GOLDEN_RELATIVE[(name, sub)]


def _by_dim(complex_):
    out = {}
    for s in complex_.simplices:
        out.setdefault(len(s) - 1, []).append(tuple(s))
    return {k: sorted(v) for k, v in out.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_betti_against_field_oracle(name):
    c = spaces.load_space(name)
    C, _ = c.chain_complex()
    sims = _by_dim(c)
    rational = betti_numbers(sims)
    for k, want in enumerate(rational):
        assert homology_data(C, k).group.betti == want


@pytest.mark.parametrize("name,extra2", [("rp2", [1, 1]), ("klein", [1, 1])])
def test_torsion_against_mod2_oracle(name, extra2):
    # over GF(2) each Z/2 summand inflates the Betti number in its own
    # degree and one higher
    c = spaces.load_space(name)
    C, _ = c.chain_complex()
    sims = _by_dim(c)
    rational = betti_numbers(sims)
    mod2 = betti_numbers(sims, p=2)
    mod3 = betti_numbers(sims, p=3)
    assert mod3 == rational
    gaps = [m - r for m, r in zip(mod2, rational)]
    assert gaps[1:] == extra2
    torsion = homology_data(C, 1).group.torsion
    assert list(torsion) == [2]


def test_boundary_matrices_match_oracle(torus):
    C, basis = torus.chain_complex()
    sims = _by_dim(torus)
    for k in (1, 2):
        rows = simplicial_boundary_rows(sims[k - 1], sims[k])
        assert C.boundary(k).to_rows() == rows


def test_connecting_iso_disc_pair():
    pair = spaces.load_space("disc_pair").relative_pair("boundary")
    cols, hq, ha = connecting_homomorphism(pair, 2)
    assert hq.group.betti == 1 and ha.group.betti == 1
    assert len(cols) == 1 and [abs(x) for x in cols[0]] == [1]


def test_connecting_vanishes_on_circle_point_pair(s1):
    verts = s1.vertices
    sims = s1.simplices
    pt = [i for i, s in enumerate(sims) if s == (0,)]
    c = MetricComplex(3, verts, sims, {"pt": pt})
    pair = c.relative_pair("pt")
    for k in (1, 2):
        cols, hq, ha = connecting_homomorphism(pair, k)
        assert all(all(x == 0 for x in col) for col in cols)


@pytest.mark.parametrize("name,sub", sorted(GOLDEN_RELATIVE))
def test_long_exact_sequence(name, sub):
    pair = spaces.load_space(name).relative_pair(sub)
    A, X, Q = pair.sub_complex, pair.total, pair.quotient_complex
    for k in range(1, len(X.dims)):
        ha, hx, hq = homology_data(A, k), homology_data(X, k), homology_data(Q, k)
        ha1, hx1 = homology_data(A, k - 1), homology_data(X, k - 1)
        incl = hom_matrix_columns(ha, hx, lambda v: pair.include_vector(k, v))
        proj = hom_matrix_columns(hx, hq, lambda v: pair.project_vector(k, v))
        conn, _, _ = connecting_homomorphism(pair, k)
        incl1 = hom_matrix_columns(ha1, hx1,
                                   lambda v: pair.include_vector(k - 1, v))
        assert exact_at(incl, ha.moduli, hx.moduli, proj, hq.moduli)
        assert exact_at(proj, hx.moduli, hq.moduli, conn, ha1.moduli)
        assert exact_at(conn, hq.moduli, ha1.moduli, incl1, hx1.moduli)


def test_homology_generators_are_cycles(torus):
    C, _ = torus.chain_complex()
    data = homology_data(C, 1)
    d = C.boundary(1)
    for g in data.generators():
        assert all(x == 0 for x in d.apply(g))
    assert len(data.generators()) == 2


def test_group_strings():
    c = spaces.load_space("klein")
    C, _ = c.chain_complex()
    assert str(homology_data(C, 0).group) == "Z"
    assert str(homology_data(C, 1).group) == "Z + Z/2"
    assert str(homology_data(C, 2).group) == "0"


@pytest.mark.parametrize("name", ["torus", "klein"])
def test_one_factorization_pair_per_degree(name, monkeypatch):
    calls = []
    real = intlinalg.smith_normal_form

    def counted(M):
        calls.append((M.nrows, M.ncols))
        return real(M)

    for module in (intlinalg, chaincomplex):
        monkeypatch.setattr(module, "smith_normal_form", counted)
    C, _ = spaces.load_space(name).chain_complex()
    data = [homology_data(C, k) for k in range(len(C.dims))]
    assert len(calls) == 2 * len(C.dims)
    calls.clear()
    for h in data:
        for g in h.generators():
            h.class_vector(g)
    assert calls == []


def _polygon(n):
    verts = [(Fraction(t), Fraction(t * t)) for t in range(n)]
    edges = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    return MetricComplex(2, verts, [(i,) for i in range(n)] + edges)


def _polygon_product(n):
    return spaces.graph_product_surface(_polygon(n), _polygon(n)).chain_complex()[0]


def _check_generators_and_classes(C):
    """H_0, H_1, H_2 of a torus are Z, Z^2, Z, each generator has the unit
    class vector, and so has the generator moved by a seeded boundary."""
    rng = random.Random(4)
    for k, want in enumerate(["Z", "Z^2", "Z"]):
        data = homology_data(C, k)
        assert str(data.group) == want
        gens = data.generators()
        for i, g in enumerate(gens):
            unit = [int(j == i) for j in range(len(gens))]
            assert data.class_vector(g) == unit
            x = [rng.randint(-2, 2) for _ in range(C.dim(k + 1))]
            moved = [a + b for a, b in zip(g, C.boundary(k + 1).apply(x))]
            assert data.class_vector(moved) == unit


def test_polygon_product_generators_and_classes():
    C = _polygon_product(11)
    assert sum(C.dims) == 726
    _check_generators_and_classes(C)


def test_large_polygon_product_generators_and_classes():
    C = _polygon_product(20)
    assert sum(C.dims) == 2400
    _check_generators_and_classes(C)


def test_polygon_product_snf_matches_dense_reference(monkeypatch):
    """Every factorization homology_data makes on the 726-simplex product,
    of boundaries and of boundary images in cycle coordinates, returns the
    same five matrices as the dense reference."""
    C = _polygon_product(11)
    inputs = []
    real = intlinalg.smith_normal_form

    def recorded(M):
        inputs.append(M)
        return real(M)

    monkeypatch.setattr(chaincomplex, "smith_normal_form", recorded)
    for k in range(len(C.dims)):
        homology_data(C, k)
    assert len(inputs) == 2 * len(C.dims)
    for M in inputs:
        assert real(M) == dense_smith_normal_form(M), (M.nrows, M.ncols)


def test_polygon_product_transform_row_work(monkeypatch):
    """Entries read by the row operations on the four transforms, over
    homology_data in every degree of the 726-simplex product.  Sparse rows
    read 109,071 of them; dense rows of full length read 6,013,232."""
    C = _polygon_product(11)
    read = []
    real = intlinalg._add_row

    def counted(rows, i, k, c):
        read.append(len(rows[k]))
        real(rows, i, k, c)

    monkeypatch.setattr(intlinalg, "_add_row", counted)
    for k in range(len(C.dims)):
        homology_data(C, k)
    assert read
    assert sum(read) <= 600_000
