import random
from fractions import Fraction

import pytest

from mhom.complexes import (BallCover, MetricComplex, PLMap,
                            mcshane_extension)
from mhom.errors import GeometryError, InputError
from mhom.geometry import (edge_matrix, gram_matrix, point_in_simplex,
                           solve_fraction_system)
from mhom.rational import centroid, dist2
from mhom import complexes, geometry, rational, spaces


def segment(length=2):
    return MetricComplex(2, [(0, 0), (length, 0)], [(0,), (1,), (0, 1)])


def unit_square():
    verts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    tops = [(0, 1, 3), (0, 2, 3)]
    sims = sorted({tuple(sorted(f)) for t in tops
                   for r in range(1, 4)
                   for f in __import__("itertools").combinations(t, r)})
    return MetricComplex(2, verts, sims)


def test_distances_exact(s1):
    a, b, c = s1.vertices
    assert dist2(a, b) == 2
    assert dist2(b, c) == 2
    assert dist2(a, c) == 2


def test_containment_and_lookup(torus):
    for s in torus.top_simplices():
        pts = torus.points_of(s)
        mid = tuple(sum(col) / len(col) for col in zip(*pts))
        assert torus.tops_holding(mid)
        assert torus.find_containing_simplex([mid]) is not None
    outside = tuple(Fraction(5) for _ in range(torus.ambient_dim))
    assert not torus.tops_holding(outside)


def _off_hull(verts, step):
    """The centroid of verts moved by step times a normal of their hull."""
    E = edge_matrix(verts)
    G = gram_matrix(verts)
    n = len(verts[0])
    for i in range(n):
        # e_i minus its projection onto the edge span
        coef = solve_fraction_system(G, [e[i] for e in E])
        normal = [int(k == i) - sum(c * e[k] for c, e in zip(coef, E))
                  for k in range(n)]
        if any(normal):
            return tuple(x + step * y for x, y in zip(centroid(verts), normal))
    raise AssertionError("the simplex spans its ambient space")


@pytest.mark.parametrize("name", ["torus", "s1", "s2", "klein"])
def test_point_location_matches_reference(name, monkeypatch):
    X = spaces.load_space(name)
    tops = X.top_simplices()
    cells = [X.points_of(t) for t in tops]
    points = X.sample_vertices(3)
    for verts in cells:
        points.append(centroid(verts))
        points.append(_off_hull(verts, Fraction(1, 7)))
        points.append(_off_hull(verts, Fraction(1, 10 ** 6)))
        # on the line through an edge, beyond its end
        points.append(tuple(2 * b - a for a, b in zip(verts[0], verts[1])))
    outside = tuple(Fraction(5) for _ in range(X.ambient_dim))
    points.append(outside)
    homes = []
    for p in points:
        ref = tuple(j for j, verts in enumerate(cells)
                    if point_in_simplex(p, verts))
        first = X.simplices.index(tops[ref[0]]) if ref else None
        # the second ask reads the memo, as does the plain-Fraction twin
        twin = tuple(Fraction(x.numerator, x.denominator) for x in p)
        for q in (p, p, twin):
            assert X.tops_holding(q) == ref
            assert X.find_containing_simplex([q]) == first
        homes.append(set(ref))
    assert len(X._held) == len(set(points))
    assert X.tops_holding(outside) == ()
    assert X.find_containing_simplex([outside]) is None
    # every top holds the empty point set; the first one answers
    assert X.find_containing_simplex([]) == X.simplices.index(tops[0])
    # every kind of point occurs: inside one top, on shared faces, outside
    sizes = {min(len(h), 2) for h in homes}
    assert sizes == {0, 1, 2}
    for i in range(len(points) - 1):
        both = sorted(homes[i] & homes[i + 1])
        first = X.simplices.index(tops[both[0]]) if both else None
        assert X.find_containing_simplex(points[i:i + 2]) == first
    # a memo that starts over at two points answers the same, and never
    # holds more
    monkeypatch.setattr(rational, "MEMO_LIMIT", 2)
    Y = spaces.load_space(name)
    for p, home in zip(points, homes):
        assert Y.tops_holding(p) == tuple(sorted(home))
        assert len(Y._held) <= 2


def test_subdivision_is_built_once(monkeypatch):
    calls = []
    real = geometry.barycentric_subdivide

    def counted(tup):
        calls.append(len(tup))
        return real(tup)

    for module in (geometry, complexes):
        monkeypatch.setattr(module, "barycentric_subdivide", counted)
    X = spaces.load_space("torus")
    samples = X.sample_vertices(2)
    assert calls
    calls.clear()
    assert X.sample_vertices(2) == samples
    assert len(X.subdivided_tops(2)) == 36 * len(X.top_simplices())
    X.sample_vertices(1)
    X.subdivided_tops(1)
    assert calls == []


def test_cached_results_come_as_fresh_lists():
    X = spaces.load_space("s2")
    getters = (X.top_simplices, lambda: X.sample_vertices(2),
               lambda: X.subdivided_tops(2))
    for get in getters:
        first = get()
        want = list(first)
        first.reverse()
        first.append(first[0])
        first[0] = None
        assert get() == want


def test_sample_vertices_grow(s1):
    d1 = set(s1.sample_vertices(1))
    d2 = set(s1.sample_vertices(2))
    assert d1 < d2
    assert set(s1.vertices) <= d1


def test_plmap_affine_identity_constant():
    ident = PLMap.affine([[1, 0], [0, 1]])
    const = PLMap.constant((1, 2))
    p = (Fraction(1, 3), Fraction(2, 7))
    assert ident(p) == p
    assert const(p) == (1, 2)
    assert PLMap.coordinate(2, 1).scalar(p) == Fraction(2, 7)


@pytest.mark.parametrize("matrix, offset", [
    ([[1, 0], [0, 1]], [1]),
    ([[1, 0], [0, 1]], [1, 2, 3]),
    ([[1], [0, 1]], None),
])
def test_plmap_affine_rejects_mismatched_shapes(matrix, offset):
    with pytest.raises(InputError):
        PLMap.affine(matrix, offset=offset)


def test_plmap_lipschitz_exact():
    stretch = PLMap.affine([[2, 0], [0, 1]])
    assert stretch.lipschitz_at_most(2)
    assert not stretch.lipschitz_at_most(Fraction(199, 100))
    assert not stretch.lipschitz_at_most(2 - Fraction(1, 10 ** 9))


def test_plmap_hat_function():
    sq = unit_square()
    hat = PLMap.scalar_from_vertex_values(
        sq, 0, lambda p: 1 if p == (0, 0) else 0)
    assert hat.scalar((Fraction(0), Fraction(0))) == 1
    assert hat.scalar((Fraction(1), Fraction(0))) == 0
    assert hat.scalar((Fraction(1, 2), Fraction(0))) == Fraction(1, 2)


def test_cellwise_lipschitz_on_s2(s2):
    # s2 bounds the tetrahedron on 0, e1, e2, e3; on a coordinate triangle
    # such as (0, e1, e2) the hat at 0 is 1 - x - y, whose gradient has
    # squared length 2, and its depth-1 interpolation is the same map
    v0 = s2.vertices[0]
    hat = PLMap.scalar_from_vertex_values(s2, 0, lambda p: int(p == v0))
    fine = PLMap.scalar_from_vertex_values(s2, 1, hat.scalar)
    for f in (hat, fine):
        assert f.scalar_lipschitz_squared() == 2
        assert f.lipschitz_at_most(Fraction(142, 100))
        assert not f.lipschitz_at_most(Fraction(141, 100))


@pytest.mark.parametrize("name,depth", [("s1", 2), ("s2", 1), ("torus", 0)])
def test_cellwise_map_matches_barycentric_solve(name, depth):
    # the complex's locators give the piece and the value that the generic
    # point test and barycentric solve of geometry give
    X = spaces.load_space(name)
    rng = random.Random(11)
    cells = [tup for _, tup in X.subdivided_tops(depth)]
    values = {p: (Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)),
                  Fraction(rng.randrange(-9, 10)))
              for p in X.sample_vertices(depth)}
    f = PLMap.from_vertex_values(X, depth, values.__getitem__, 2)
    points = X.sample_vertices(depth + 1) + [centroid(c) for c in cells]
    points += [_off_hull(c, Fraction(1, 9)) for c in cells[:5]]
    inside = 0
    for p in points:
        ref = next((i for i, c in enumerate(cells)
                    if point_in_simplex(p, c)), None)
        assert f.find_cell([p]) == ref
        if ref is None:
            with pytest.raises(GeometryError):
                f(p)
            continue
        inside += 1
        lam = geometry.barycentric_coords(p, cells[ref])
        want = tuple(sum(l * values[v][d] for l, v in zip(lam, cells[ref]))
                     for d in range(2))
        assert f(p) == want
    assert 0 < inside < len(points)


def test_complex_rejects_a_degenerate_simplex():
    # so no piece of any subdivision, hence no cell of a map, is degenerate
    flat = [(0, 0), (1, 1), (2, 2)]
    with pytest.raises(InputError, match="degenerate"):
        MetricComplex(2, flat, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2),
                                (0, 1, 2)])


# Each input with the InputError text the complex constructor gave when it
# tested every simplex in (len, t) order with a Gram determinant.
FLAT_TRIANGLE = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
REJECTED = [
    ("degenerate top", [(0, 0), (1, 1), (2, 2)], FLAT_TRIANGLE,
     "simplex (0, 1, 2) is geometrically degenerate"),
    ("degenerate edge under a degenerate top", [(0, 0), (0, 0), (1, 0)],
     FLAT_TRIANGLE, "simplex (0, 1) is geometrically degenerate"),
    ("repeated vertex", [(0, 0), (1, 0), (0, 1)],
     [(0,), (1,), (2,), (0, 1), [1, 2, 2]],
     "repeated vertex in simplex [1, 2, 2]"),
    ("degenerate edge before a missing face",
     [(0, 0), (0, 0), (1, 0), (0, 1)],
     [(0,), (1,), (2,), (3,), (0, 1), (2, 3), (0, 2, 3)],
     "simplex (0, 1) is geometrically degenerate"),
    ("degenerate top before a missing face",
     [(0, 0), (1, 0), (2, 0), (0, 1)],
     [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2), (0, 3), (0, 1, 2),
      (0, 1, 3)],
     "simplex (0, 1, 2) is geometrically degenerate"),
    ("invalid index before a degenerate top", [(0, 0), (1, 1), (2, 2)],
     FLAT_TRIANGLE + [(5,)], "simplex (5,) has an invalid vertex index"),
    ("empty simplex", [(0,)], [(0,), ()], "empty simplex"),
    ("no simplices", [(0,)], [], "complex has no simplices"),
]


@pytest.mark.parametrize("name, verts, sims, text", REJECTED,
                         ids=[r[0] for r in REJECTED])
def test_complex_rejects_with_the_first_fault_in_order(name, verts, sims,
                                                       text):
    with pytest.raises(InputError) as err:
        MetricComplex(len(verts[0]), verts, sims)
    assert str(err.value) == text


def _polygon(n):
    verts = [(Fraction(t), Fraction(t * t)) for t in range(n)]
    edges = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    return MetricComplex(2, verts, [(i,) for i in range(n)] + edges)


def test_construction_tests_only_tops_and_makes_no_gram_determinant(
        monkeypatch):
    """Building every bundled space and the 11-gon x 11-gon product (726
    simplices) tests each top simplex of each complex built once for
    degeneracy, and no face, and never forms a Gram matrix or a Fraction
    determinant."""
    gram_calls = []
    for mod, name in [(geometry, "gram_det"), (geometry, "gram_matrix"),
                      (geometry, "det_fraction"), (complexes, "gram_matrix")]:
        monkeypatch.setattr(mod, name,
                            lambda *a, name=name: gram_calls.append(name))
    tested, built = [], []
    real_test, real_init = complexes.is_degenerate, MetricComplex.__init__

    def counting_test(verts):
        tested.append(tuple(verts))
        return real_test(verts)

    def recording_init(self, *args, **kwargs):
        tested.clear()
        real_init(self, *args, **kwargs)
        built.append((self, sorted(tested)))

    monkeypatch.setattr(complexes, "is_degenerate", counting_test)
    monkeypatch.setattr(MetricComplex, "__init__", recording_init)
    for name in spaces.builtin_spaces():
        spaces.load_space(name)
    factor = _polygon(11)
    assert len(spaces.graph_product_surface(factor, factor).simplices) == 726
    assert len(built) > len(spaces.builtin_spaces()) + 1
    for c, verts in built:
        assert verts == sorted(c.points_of(t) for t in c.top_simplices())
    assert gram_calls == []


def test_mcshane_two_point_interpolation():
    c = segment(2)
    data = [((Fraction(0), Fraction(0)), Fraction(0)),
            ((Fraction(2), Fraction(0)), Fraction(2))]
    ext = mcshane_extension(c, data, L=1, depth=2)
    assert ext.scalar((Fraction(0), Fraction(0))) == 0
    assert ext.scalar((Fraction(2), Fraction(0))) == 2
    assert ext.scalar((Fraction(1), Fraction(0))) == 1
    assert ext.scalar((Fraction(1, 2), Fraction(0))) == Fraction(1, 2)


def test_mcshane_rejects_bad_data():
    c = segment(2)
    data = [((Fraction(0), Fraction(0)), Fraction(0)),
            ((Fraction(2), Fraction(0)), Fraction(5))]
    with pytest.raises(GeometryError):
        mcshane_extension(c, data, L=1)


def test_mcshane_seeded_lipschitz(s1, s2):
    rng = random.Random(3)
    pts = s1.sample_vertices(1)
    for _ in range(12):
        L = Fraction(rng.randrange(2, 7))
        slope = Fraction(rng.randrange(-L.numerator, L.numerator + 1))
        data = [(p, slope * p[0]) for p in rng.sample(pts, 3)]
        ext = mcshane_extension(s1, data, L, depth=1)
        for p, v in data:
            assert ext.scalar(p) == v
        # at the snap depth the values obey the modulus pairwise
        sample = rng.sample(pts, min(8, len(pts)))
        for a in sample:
            for b in sample:
                gap = ext.scalar(a) - ext.scalar(b)
                assert gap * gap <= L * L * dist2(a, b)
    # at (1/3, 0, 1/3) the admissible interval is about 2e-13 wide,
    # narrower than the first rounding step 2^-40
    half = Fraction(1, 2)
    data = [((0, 0, half), 0), ((half, 0, half), -2)]
    ext = mcshane_extension(s2, data, 6, depth=1)
    for p, v in data:
        assert ext.scalar(p) == v
    pts = s2.sample_vertices(1)
    for a in pts:
        for b in pts:
            gap = ext.scalar(a) - ext.scalar(b)
            assert gap * gap <= 36 * dist2(a, b)


def test_covers_verify(s1, arcs2, arcs3, torus, torus_balls):
    assert arcs2.verify_covers(3) == []
    assert arcs3.verify_covers(3) == []
    assert torus_balls.verify_covers(2) == []


def test_cover_converts_each_point_to_integers_once(torus, monkeypatch):
    """members(), first_ball_containing(), contains() and simplex_inside()
    read one per-point memo, so each distinct point is converted to
    integers once; the answers match the ball-by-ball tests."""
    cover = spaces.load_cover(torus, "torus_balls")
    samples = torus.sample_vertices(2)
    pieces = [tup for _, tup in torus.subdivided_tops(1)]
    # the depth-1 vertices are depth-2 vertices
    assert {p for tup in pieces for p in tup} <= set(samples)
    real = complexes.integer_form
    calls = []

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(complexes, "integer_form", counted)
    table = cover.members(2)
    homes = [cover.first_ball_containing(tup, range(len(cover)))
             for tup in pieces]
    held = {p: {i for i in range(len(cover)) if cover.contains(i, p)}
            for p in samples}
    inside = [[j for j in range(len(cover)) if cover.simplex_inside(j, tup)]
              for tup in pieces]
    assert len(calls) == len(set(calls)) == len(samples) == 324
    monkeypatch.setattr(complexes, "integer_form", real)
    for p in samples:
        assert table[p] == held[p] == {
            i for i, (c, r) in enumerate(zip(cover.centers, cover.radii))
            if dist2(p, c) < r * r}
    for tup, i, ins in zip(pieces, homes, inside):
        assert i == (ins[0] if ins else None)


def test_first_ball_follows_the_given_order(arcs3):
    # solve_phi lists its admissible balls; the first of them that holds
    # the simplex wins, whatever the cover's own order
    p, inside = next((p, held) for p, held in arcs3.members(2).items()
                     if len(held) > 1)
    a, b = sorted(inside)[:2]
    assert arcs3.first_ball_containing((p,), [a, b]) == a
    assert arcs3.first_ball_containing((p,), [b, a]) == b
    others = [i for i in range(len(arcs3)) if i not in inside]
    assert arcs3.first_ball_containing((p,), others) is None
    assert arcs3.first_ball_containing((p,), others + [b]) == b


def test_non_covering_family_reports_witness(s1):
    bad = BallCover(s1, [
        {"center_simplex": 0, "barycentric": [Fraction(1)],
         "radius": Fraction(1, 2)},
    ])
    missed = bad.verify_covers(2)
    assert missed
    # every reported piece genuinely escapes the ball
    for tup in missed:
        assert not bad.simplex_inside(0, tup)


def test_empty_intersection_certificate(arcs3):
    assert arcs3.intersection_empty_certificate((0, 1, 2))
    assert not arcs3.intersection_empty_certificate((0, 1))


@pytest.mark.parametrize("center", [[1], [1, 0, 0, 0]])
def test_ball_center_needs_one_coordinate_per_axis(s1, center):
    # membership zips a point's coordinates with the center's, so a short
    # center would test only its own axes
    with pytest.raises(InputError, match="coordinate count"):
        BallCover(s1, [{"center": center, "radius": 2}])


def test_relative_pair_unknown_name():
    c = spaces.load_space("disc_pair")
    with pytest.raises(InputError):
        c.relative_pair("nope")
