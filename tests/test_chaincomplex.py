import random
from fractions import Fraction
from itertools import combinations

import pytest

from mhom import chaincomplex, intlinalg, spaces
from mhom.chaincomplex import (ChainComplexZ, connecting_homomorphism,
                               exact_at, hom_matrix_columns, homology_data)
from mhom.complexes import MetricComplex
from mhom.intlinalg import IntMatrix, kernel_basis

from oracles import (betti_numbers, dense_smith_normal_form, det,
                     simplicial_boundary_rows, sorted_face_lists)

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


@pytest.mark.parametrize("name", spaces.builtin_spaces())
def test_one_factorization_pair_per_degree(name, monkeypatch):
    """Two factorizations per degree, none for class lookups, and none of
    more than 3 cells: the coreduction leaves smith_normal_form tiny
    matrices, which is why it works on dense rows."""
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
    assert max(r * c for r, c in calls) <= 3, calls
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


def test_polygon_product_at_scale_generators_and_classes():
    C = _polygon_product(40)
    assert sum(C.dims) == 9600
    _check_generators_and_classes(C)


def test_polygon_product_snf_matches_dense_reference(monkeypatch):
    """Every factorization the two-SNF solver makes on the full boundaries
    of the 726-simplex product, of boundaries and of boundary images in
    cycle coordinates, returns the same five matrices as the dense
    reference.  homology_data factors only the small Morse matrices, so the
    solver is run on the full complex directly."""
    C = _polygon_product(11)
    inputs = []
    real = intlinalg.smith_normal_form

    def recorded(M):
        inputs.append(M)
        return real(M)

    monkeypatch.setattr(chaincomplex, "smith_normal_form", recorded)
    for k in range(len(C.dims)):
        chaincomplex._smith_homology(C.boundary(k), C.boundary(k + 1))
    assert len(inputs) == 2 * len(C.dims)
    for M in inputs:
        assert real(M) == dense_smith_normal_form(M), (M.nrows, M.ncols)


def test_polygon_product_reduced_work(monkeypatch):
    """On the 726-simplex product, every factorization homology_data makes
    sees at most the critical k-cells of its window (1, 2 and 1), and the
    flow steps, each y -= (y_a / eps) * d(b) for one pair (a, b), number at
    most the window's cells."""
    C = _polygon_product(11)
    windows = []

    class Counted(chaincomplex._Coreduction):
        def __init__(self, dk, dk1):
            self.steps = 0
            super().__init__(dk, dk1)
            windows.append(self)

        def _pair(self, a, b, eps):
            self.steps += a >= self.mid
            super()._pair(a, b, eps)

        def _sweep(self, w):
            taken = super()._sweep(w)
            self.steps += len(taken)
            return taken

    shapes = []
    real = intlinalg.smith_normal_form

    def recorded(M):
        shapes.append((M.nrows, M.ncols))
        return real(M)

    monkeypatch.setattr(chaincomplex, "_Coreduction", Counted)
    monkeypatch.setattr(chaincomplex, "smith_normal_form", recorded)
    for k in range(len(C.dims)):
        shapes.clear()
        data = homology_data(C, k)
        for g in data.generators():
            data.class_vector(g)
        red = windows[-1]
        critical = len(red.critical[1])
        assert critical == [1, 2, 1][k]
        assert len(shapes) == 2
        assert all(max(shape) <= critical for shape in shapes), shapes
        assert 0 < red.steps <= len(red.faces), (red.steps, len(red.faces))


def _simplicial(tops):
    """Chain complex of the closure of `tops`, over sorted simplex bases."""
    sims = {}
    for t in tops:
        t = tuple(sorted(t))
        for r in range(1, len(t) + 1):
            sims.setdefault(r - 1, set()).update(combinations(t, r))
    sims = [sorted(sims[k]) for k in range(len(sims))]
    return ChainComplexZ([len(s) for s in sims], {
        k: IntMatrix.from_rows(simplicial_boundary_rows(sims[k - 1], sims[k]))
        for k in range(1, len(sims))})


def _klein_grid(n):
    """n x n staircase grid with (i, j + n) ~ (i, j) and (i + n, j) ~
    (0, -j): a Klein bottle."""
    def vid(i, j):
        if i == n:
            i, j = 0, -j
        return i * n + j % n

    tops = []
    for i in range(n):
        for j in range(n):
            tops.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            tops.append((vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)))
    return _simplicial(tops)


def _scrambled_simplicial(rng):
    """A seeded simplicial complex on up to 8 vertices, its bases changed by
    random elementary operations, so that boundary entries leave +-1."""
    verts = range(rng.randint(4, 8))
    cells = list(combinations(verts, 3)) + list(combinations(verts, 4))
    C = _simplicial(rng.sample(cells, rng.randint(3, 12)))
    dims = C.dims
    rows = {k: C.boundary(k).to_rows() for k in range(1, len(dims))}
    for _ in range(rng.randint(0, 20)):
        k = rng.randrange(len(dims))
        if dims[k] < 2:
            continue
        i, j = rng.sample(range(dims[k]), 2)
        c = rng.choice((-2, -1, 1, 2))
        # basis vector j of degree k becomes e_j + c e_i
        if k:
            for r in rows[k]:
                r[j] += c * r[i]
        if k + 1 < len(dims):
            rows[k + 1][i] = [x - c * y for x, y in
                              zip(rows[k + 1][i], rows[k + 1][j])]
    return ChainComplexZ(dims, {k: IntMatrix.from_rows(r)
                                for k, r in rows.items()})


def _random_integer_complex(rng):
    """Z^a <- Z^b <- Z^c with d_1 random and d_2 a random combination of
    d_1's kernel basis: torsion of any order in H_0 and H_1."""
    a, b = rng.randint(1, 4), rng.randint(2, 6)
    d1 = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(b)]
                              for _ in range(a)])
    kernel = kernel_basis(d1)
    c = max(1, len(kernel) + rng.randint(-1, 1))
    mix = [[rng.randint(-3, 3) for _ in range(c)] for _ in kernel]
    d2 = IntMatrix.from_rows([[sum(v[i] * m[j] for v, m in zip(kernel, mix))
                               for j in range(c)] for i in range(b)])
    return ChainComplexZ([a, b, c], {1: d1, 2: d2})


def _differential_cases():
    cases = []
    for name in sorted(GOLDEN):
        cases.append(pytest.param(spaces.load_space(name).chain_complex()[0],
                                  id=name))
    for name, sub in sorted(GOLDEN_RELATIVE):
        pair = spaces.load_space(name).relative_pair(sub)
        cases.append(pytest.param(pair.sub_complex, id=f"{name}/{sub}"))
        cases.append(pytest.param(pair.quotient_complex, id=f"{name}:{sub}"))
    for n in (6, 12):
        cases.append(pytest.param(_klein_grid(n), id=f"klein{n}"))
    for seed in range(12):
        rng = random.Random(seed)
        cases.append(pytest.param(_scrambled_simplicial(rng),
                                  id=f"scrambled{seed}"))
        cases.append(pytest.param(_random_integer_complex(rng),
                                  id=f"integer{seed}"))
    return cases


def _assert_classes_correspond(src, dst):
    """The classes of src's generators, in dst's coordinates, generate the
    same group: a unimodular free block, torsion of the right orders, and
    each class read back unchanged."""
    betti = src.group.betti
    vectors = [dst.class_vector(g) for g in src.generators()]
    assert abs(det([v[:betti] for v in vectors[:betti]])) == 1 or betti == 0
    for order, v in zip(src.torsion_orders, vectors[betti:]):
        assert v[:betti] == [0] * betti
        assert all(order * x % d == 0
                   for x, d in zip(v[betti:], dst.torsion_orders))
    # and back: dst's generators, weighted by those coordinates, give
    # src's classes again
    gens = dst.generators()
    for i, (g, v) in enumerate(zip(src.generators(), vectors)):
        back = [sum(x * h[j] for x, h in zip(v, gens)) for j in range(len(g))]
        assert src.class_vector(back) == [int(j == i)
                                          for j in range(len(vectors))]


@pytest.mark.parametrize("C", _differential_cases())
def test_homology_matches_full_complex_reference(C):
    """homology_data against the two-SNF solver run on the full complex."""
    for k in range(len(C.dims)):
        dk = C.boundary(k)
        new = homology_data(C, k)
        old = chaincomplex._smith_homology(dk, C.boundary(k + 1))
        assert new.group == old.group, k
        for g in new.generators():
            assert len(g) == C.dim(k) and not any(dk.apply(g))
        _assert_classes_correspond(old, new)
        _assert_classes_correspond(new, old)
        with pytest.raises(ValueError):
            new.class_vector([0] * (C.dim(k) + 1))
        bad = next((j for j in range(C.dim(k)) if dk.get(0, j)), None)
        if bad is not None:
            with pytest.raises(ValueError):
                new.class_vector([int(j == bad) for j in range(C.dim(k))])


@pytest.mark.parametrize("C", _differential_cases())
def test_face_lists_match_sorted_reference(C):
    """The bucketed face and coface lists are those of the walk over each
    boundary's entries in sorted order."""
    for k in range(len(C.dims)):
        dk, dk1 = C.boundary(k), C.boundary(k + 1)
        assert (chaincomplex._Coreduction.face_lists(dk, dk1)
                == sorted_face_lists(dk, dk1)), k


def _shuffled(M, rng):
    items = list(M.data.items())
    rng.shuffle(items)
    return IntMatrix(M.nrows, M.ncols, dict(items))


@pytest.mark.parametrize("C", [pytest.param(_polygon_product(5), id="5-gon^2"),
                               pytest.param(_klein_grid(6), id="klein6")])
def test_coreduction_ignores_insertion_order(C):
    """Boundaries whose entries were inserted in shuffled order give the
    same face lists, matching, flow table and generators."""
    rng = random.Random(17)
    shuffled = ChainComplexZ(C.dims, {k: _shuffled(C.boundary(k), rng)
                                      for k in range(1, len(C.dims))})
    assert all(list(C.boundary(k).data) != list(shuffled.boundary(k).data)
               for k in range(1, len(C.dims)))
    for k in range(len(C.dims)):
        windows = [(D.boundary(k), D.boundary(k + 1)) for D in (C, shuffled)]
        a, b = (chaincomplex._Coreduction(*w) for w in windows)
        assert (chaincomplex._Coreduction.face_lists(*windows[0])
                == chaincomplex._Coreduction.face_lists(*windows[1]))
        assert (a.faces, a.pairs, a.critical) == (b.faces, b.pairs, b.critical)
        assert list(a.proj.items()) == list(b.proj.items())
        assert (homology_data(C, k).generators()
                == homology_data(shuffled, k).generators())


def test_every_pair_goes_through_pair(monkeypatch):
    """On the 726-simplex product, each window's cells are its critical
    cells and two per _pair call, so a loop that pairs cells without
    calling _pair is caught."""
    C = _polygon_product(11)
    windows = []

    class Counted(chaincomplex._Coreduction):
        def __init__(self, dk, dk1):
            self.paired = 0
            super().__init__(dk, dk1)
            windows.append(self)

        def _pair(self, a, b, eps):
            self.paired += 1
            super()._pair(a, b, eps)

    monkeypatch.setattr(chaincomplex, "_Coreduction", Counted)
    for k in range(len(C.dims)):
        homology_data(C, k)
        red = windows[-1]
        cells = len(red.faces)
        assert cells == C.dim(k - 1) + C.dim(k) + C.dim(k + 1)
        assert 2 * red.paired == cells - sum(map(len, red.critical)), k
        assert red.paired > 0
