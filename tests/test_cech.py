import random
from fractions import Fraction
from itertools import combinations

import pytest

from mhom import cech, complexes, currents, geometry, rational, spaces
from mhom.bracket import bracket, bracket_inverse_points
from mhom.cech import (Nerve, augment, augment_nerve, cech_boundary,
                       cone_fill_chain, conforming, fill_zero_chain,
                       solve_phi, split, zigzag_cancel, zigzag_descend,
                       zigzag_fill)
from mhom.chains import LipschitzChain
from mhom.currents import PolyhedralCurrent
from mhom.errors import GeometryError, InputError, LocalityError
from mhom.intlinalg import IntMatrix, solve_integer

from oracles import full_traversal_fill
from test_chains import circle_cycle

F = Fraction

CIRCLE_CLASS = {(0, 1): -1, (0, 2): 1, (1, 2): -1}


def test_nerve_three_arcs(arcs3):
    nerve = Nerve(arcs3, max_arity=3)
    assert nerve.tuples(1) == [(0,), (1,), (2,)]
    assert nerve.tuples(2) == [(0, 1), (0, 2), (1, 2)]
    assert nerve.tuples(3) == []
    assert arcs3.intersection_empty_certificate((0, 1, 2))
    for tup in nerve.tuples(2):
        w = nerve.witnesses[tup]
        assert all(arcs3.contains(i, w) for i in tup)


def test_nerve_two_arcs(arcs2):
    nerve = Nerve(arcs2, max_arity=3)
    assert nerve.tuples(1) == [(0,), (1,)]
    assert nerve.tuples(2) == [(0, 1)]


def test_index_deletion_single_pair():
    assert cech_boundary({(0, 1): 5}) == {(1,): 5, (0,): -5}
    assert cech_boundary({(0, 1, 2): 1}) == {(1, 2): 1, (0, 2): -1,
                                             (0, 1): 1}


def test_index_deletion_squares_to_zero():
    rng = random.Random(41)
    for _ in range(25):
        z = {}
        for tup in combinations(range(6), 3):
            w = rng.randrange(-4, 5)
            if w:
                z[tup] = w
        assert set(cech_boundary(cech_boundary(z)).values()) <= {0}


def test_augmentation_kills_image(s1):
    a, b, c = s1.vertices
    x = LipschitzChain.from_simplices(s1, [(1, (a, b))])
    y = LipschitzChain.from_simplices(s1, [(2, (b, c))])
    W = {(0, 1): x, (1, 2): y, (0, 2): x - y}
    img = cech_boundary(W)
    assert augment(img, x.scale(0)).is_zero()


def test_multiplicity_commutes_with_deletion(s1):
    rng = random.Random(42)
    pts = s1.sample_vertices(1)
    for _ in range(15):
        W = {}
        for tup in ((0, 1), (0, 2), (1, 2), (1, 3)):
            terms = {(p,): rng.randrange(-3, 4) for p in rng.sample(pts, 2)}
            terms = {t: w for t, w in terms.items() if w}
            if terms:
                W[tup] = LipschitzChain(s1, 0, terms)
        lhs = augment_nerve(cech_boundary(W))
        rhs = {t: w for t, w in cech_boundary(augment_nerve(W)).items()
               if w}
        assert lhs == rhs


def test_cosheaf_split_two_arcs(s1, arcs2):
    T = bracket(circle_cycle(s1))
    parts = split(T, arcs2, [0, 1])
    S, rest = parts[(0,)], parts[(1,)]
    assert (S + rest).equals(T)
    for tup in S.pieces:
        assert arcs2.simplex_inside(0, tup)
    for tup in rest.pieces:
        assert arcs2.simplex_inside(1, tup)
    dS = S.boundary()
    assert dS.equals(-rest.boundary())
    for tup in dS.reduce().pieces:
        assert arcs2.simplex_inside(0, tup)
        assert arcs2.simplex_inside(1, tup)


def test_conforming_detects_straddling(s1):
    T = bracket(circle_cycle(s1))
    assert conforming(T, s1)
    a, b, c = s1.vertices
    mid_ab = tuple((x + y) / 2 for x, y in zip(a, b))
    mid_bc = tuple((x + y) / 2 for x, y in zip(b, c))
    chord = PolyhedralCurrent.from_tuples(3, [(1, (mid_ab, mid_bc))])
    assert not conforming(chord, s1)


def test_split_current_by_cover(s1, arcs3):
    T = bracket(circle_cycle(s1))
    parts = split(T, arcs3)
    total = PolyhedralCurrent.zero(3, 1)
    for (i,), part in parts.items():
        for tup in part.pieces:
            assert arcs3.simplex_inside(i, tup)
        total = total + part
    assert total.equals(T)


def test_boundary_matching_across_overlaps(s1, arcs3):
    T = bracket(circle_cycle(s1))
    nerve = Nerve(arcs3, max_arity=2)
    parts = split(T, arcs3)
    Y = {A: comp.boundary() for A, comp in parts.items()}
    W = solve_phi(Y, nerve)
    for (a, b), comp in W.items():
        for tup in comp.pieces:
            assert arcs3.simplex_inside(a, tup)
            assert arcs3.simplex_inside(b, tup)
    img = cech_boundary(W)
    for A in set(img) | set(Y):
        lhs = img.get(A, PolyhedralCurrent.zero(3, 0))
        rhs = Y.get(A, PolyhedralCurrent.zero(3, 0))
        assert lhs.equals(rhs)


def test_boundary_matching_needs_balanced_input(arcs2):
    nerve = Nerve(arcs2, max_arity=2)
    w = nerve.witnesses[(0,)]
    Y = {(0,): PolyhedralCurrent.from_tuples(3, [(1, (w,))], degree=0)}
    with pytest.raises(GeometryError):
        solve_phi(Y, nerve)


def test_fill_zero_chain_path(s1):
    p, q = s1.vertices[0], s1.vertices[1]
    z = LipschitzChain(s1, 0, {(q,): 1, (p,): -1})
    path = fill_zero_chain(s1, z, None)
    assert path.boundary() == z
    unbalanced = LipschitzChain(s1, 0, {(p,): 1})
    with pytest.raises(GeometryError):
        fill_zero_chain(s1, unbalanced, None)


def test_fill_zero_chain_respects_region(s1, arcs2):
    both = lambda p: arcs2.contains(0, p) and arcs2.contains(1, p)
    pts = [p for p in s1.sample_vertices(3) if both(p)]
    assert len(pts) >= 2
    base = pts[0]
    filled = 0
    disconnected = 0
    for q in pts[1:]:
        z = LipschitzChain(s1, 0, {(q,): 1, (base,): -1})
        try:
            path = fill_zero_chain(s1, z, (arcs2, (0, 1)))
        except GeometryError:
            disconnected += 1
            continue
        filled += 1
        assert path.boundary() == z
        for tup in path.terms:
            assert both(tup[0]) and both(tup[1])
    # the two-arc overlap has two components, so both outcomes occur
    assert filled > 0
    assert disconnected > 0


def _fill_outcome(fill, complex_, z, region, **kw):
    """The terms of a fill in dict order, or its error's type and text."""
    try:
        return list(fill(complex_, z, region, **kw).terms.items())
    except GeometryError as e:
        return type(e), str(e)


def _region_points(cover, balls, depth):
    table = cover.members(depth).values()
    return [v for v, inside in
            zip(cover.complex.sample_vertices(depth), table)
            if set(balls) <= inside]


@pytest.mark.parametrize("space,cover", [("s1", "arcs3"),
                                         ("torus", "torus_balls")])
def test_fill_matches_full_traversal_reference(space, cover, request):
    """On seeded single-ball and pair regions, and the whole carrier, the
    fill that stops at the last weighted node gives the full traversal's
    terms in the same order.  Points of depth 3 lie off the depth-2 grid
    the fill starts on."""
    complex_ = request.getfixturevalue(space)
    cover = request.getfixturevalue(cover)
    rng = random.Random(29)
    nerve = Nerve(cover, max_arity=2)
    regions = [(cover, K) for K in nerve.tuples(1) + nerve.tuples(2)]
    compared = 0
    for region in regions + [None]:
        for depth in (2, 3):
            pts = (_region_points(*region, depth) if region
                   else complex_.sample_vertices(depth))
            for _ in range(2 if len(pts) > 1 else 0):
                p, q = rng.sample(pts, 2)
                z = LipschitzChain(complex_, 0, {(q,): 1, (p,): -1})
                got = _fill_outcome(fill_zero_chain, complex_, z, region)
                assert got == _fill_outcome(full_traversal_fill, complex_,
                                            z, region)
                assert got and not isinstance(got, tuple)
                compared += 1
    assert compared >= 2 * (len(regions) + 1)


def test_fill_retrying_deeper_matches_reference(torus, torus_balls,
                                                monkeypatch):
    """Started at depth 0, pair fills of the torus whose points are apart
    at the coarse depths go deeper, to the same terms as the reference."""
    asked = []
    real = torus.sample_vertices
    monkeypatch.setattr(torus, "sample_vertices",
                        lambda depth: asked.append(depth) or real(depth))
    region = (torus_balls, (0, 1))
    pts = _region_points(*region, 3)
    rng = random.Random(3)
    deeper = 0
    for _ in range(6):
        p, q = rng.sample(pts, 2)
        z = LipschitzChain(torus, 0, {(q,): 1, (p,): -1})
        asked.clear()
        got = _fill_outcome(fill_zero_chain, torus, z, region, start_depth=0)
        deeper += len(asked) > 1
        assert got == _fill_outcome(full_traversal_fill, torus, z, region,
                                    start_depth=0)
    assert deeper


def test_fill_locality_error_matches_reference(s1, arcs2):
    """Points in the two components of the two-arc overlap raise the same
    LocalityError, with the same text, as the reference."""
    region = (arcs2, (0, 1))
    pts = _region_points(*region, 3)
    z = LipschitzChain(s1, 0, {(pts[0],): 1, (pts[-1],): -1})
    got = _fill_outcome(fill_zero_chain, s1, z, region, context="(pair)")
    assert got[0] is LocalityError
    assert got[1].startswith("zero-chain fill failed (pair): component of ")
    assert got == _fill_outcome(full_traversal_fill, s1, z, region,
                                context="(pair)")


def test_descent_circle_frozen(s1, arcs3):
    z = circle_cycle(s1)
    cls = zigzag_descend(z, arcs3)
    assert cls == CIRCLE_CLASS
    assert set(cech_boundary(cls).values()) <= {0}
    assert zigzag_descend(bracket(z), arcs3) == CIRCLE_CLASS


def test_descent_degree_zero_boundary(s1, arcs3):
    path = LipschitzChain.from_simplices(
        s1, [(1, (s1.vertices[0], s1.vertices[1]))])
    cls = zigzag_descend(path.boundary(), arcs3)
    assert sum(cls.values()) == 0
    # a weight-zero class bounds on the connected nerve
    nerve = Nerve(arcs3, max_arity=2)
    singles = nerve.tuples(1)
    pairs = nerve.tuples(2)
    M = IntMatrix(len(singles), len(pairs))
    for j, P in enumerate(pairs):
        for t, w in cech_boundary({P: 1}).items():
            M.set(singles.index(t), j, w)
    target = [cls.get(t, 0) for t in singles]
    assert solve_integer(M, target) is not None


def test_descent_torus_class(torus, torus_balls):
    C, _ = torus.chain_complex()
    from mhom.chaincomplex import homology_data
    from mhom.chains import chain_from_vector
    vec = homology_data(C, 2).generators()[0]
    z = chain_from_vector(torus, 2, vec)
    cls = zigzag_descend(z, torus_balls)
    assert set(cech_boundary(cls).values()) <= {0}
    assert cls


def test_descent_preconditions(s1, arcs3):
    a, b = s1.vertices[0], s1.vertices[1]
    edge = LipschitzChain.from_simplices(s1, [(1, (a, b))])
    with pytest.raises(InputError):
        zigzag_descend(edge, arcs3)
    fat = LipschitzChain(s1, 3, {(a, a, a, a): 1})
    with pytest.raises(InputError):
        zigzag_descend(fat, arcs3)
    mid_ab = tuple((x + y) / 2 for x, y in zip(a, b))
    mid_bc = tuple((x + y) / 2 for x, y in zip(b, s1.vertices[2]))
    chord = PolyhedralCurrent.from_tuples(3, [(1, (mid_ab, mid_bc)),
                                              (1, (mid_bc, mid_ab))])
    with pytest.raises(InputError):
        zigzag_descend(chord, arcs3)


def test_zigzag_fill_generator(s1, arcs3):
    T = bracket(circle_cycle(s1))
    res = zigzag_fill(T, arcs3)
    assert res.chain.boundary().is_zero()
    assert res.filling.boundary().equals(bracket(res.chain) - T)


def test_zigzag_fill_zero(s1, arcs3):
    res = zigzag_fill(PolyhedralCurrent.zero(3, 1), arcs3)
    assert res.chain.is_zero()
    assert res.filling.is_zero()


def test_zigzag_roundtrips_seeded(s1, arcs3):
    rng = random.Random(44)
    nerve = Nerve(arcs3, max_arity=3)
    for _ in range(3):
        items = spaces.random_circle_cycle(s1, rng)
        T = PolyhedralCurrent.from_tuples(3, items, 1)
        res = zigzag_fill(T, arcs3, nerve=nerve)
        z = res.chain - LipschitzChain.from_simplices(s1, items)
        w = zigzag_cancel(z, res.filling, arcs3, nerve=nerve)
        assert w.boundary() == z


def test_zigzag_cancel_zero(s1, arcs3):
    z = LipschitzChain.zero(s1, 1)
    w = zigzag_cancel(z, PolyhedralCurrent.zero(3, 2), arcs3)
    assert w.boundary().is_zero()


def test_zigzag_cancel_rejects_mismatch(s1, arcs3):
    z = circle_cycle(s1)
    with pytest.raises(InputError):
        zigzag_cancel(z, PolyhedralCurrent.zero(3, 2), arcs3)


@pytest.mark.parametrize("case, message", [
    ("fill, non-cycle", "fill needs a cycle"),
    ("fill, wrong degree", "fill implemented in degree 1, not 0"),
    ("fill, non-conforming", "fill needs a conforming representation"),
    ("cancel, non-cycle", "cancel needs a cycle"),
    ("cancel, wrong degree", "cancel implemented in degree 1, not 0"),
    ("cancel, non-conforming", "cancel needs a conforming representation"),
    ("cancel, S of wrong degree", "cancel implemented in degree 2, not 1"),
])
def test_zigzag_rejects_bad_input(s1, arcs3, case, message):
    a, b, c = s1.vertices
    centroid = tuple(sum(xs) / 3 for xs in zip(a, b, c))
    points = LipschitzChain(s1, 0, {(a,): 1, (b,): -1})
    edge = LipschitzChain.from_simplices(s1, [(1, (a, b))])
    z = circle_cycle(s1)
    # a cycle through the centroid, which no simplex of the circle holds
    chord = PolyhedralCurrent.from_tuples(3, [
        (1, (a, centroid)), (1, (centroid, b)), (1, (b, c)), (1, (c, a))])
    # the solid triangle bounds [z] exactly, but leaves the carrier
    disk = PolyhedralCurrent.from_tuples(3, [(1, (a, b, c))])
    calls = {
        "fill, non-cycle": lambda: zigzag_fill(bracket(edge), arcs3),
        "fill, wrong degree": lambda: zigzag_fill(bracket(points), arcs3),
        "fill, non-conforming": lambda: zigzag_fill(chord, arcs3),
        "cancel, non-cycle":
            lambda: zigzag_cancel(edge, PolyhedralCurrent.zero(3, 2), arcs3),
        "cancel, wrong degree":
            lambda: zigzag_cancel(points, PolyhedralCurrent.zero(3, 1), arcs3),
        "cancel, non-conforming": lambda: zigzag_cancel(z, disk, arcs3),
        "cancel, S of wrong degree":
            lambda: zigzag_cancel(z, bracket(z), arcs3),
    }
    assert disk.boundary().equals(bracket(z))
    with pytest.raises(InputError, match=message):
        calls[case]()


def test_degree_zero_roundtrip(s1):
    rng = random.Random(45)
    pts = s1.sample_vertices(1)
    for _ in range(10):
        a, b = rng.sample(pts, 2)
        T = PolyhedralCurrent.from_tuples(3, [(2, (a,)), (-2, (b,))],
                                          degree=0)
        chain = bracket_inverse_points(T, s1)
        assert bracket(chain).equals(T)
        w = fill_zero_chain(s1, chain, None, start_depth=1,
                            context="(global)")
        assert w.boundary() == chain


def test_cone_fill_chain_square(s1):
    from test_complexes import unit_square
    sq = unit_square()
    rim = LipschitzChain.from_simplices(sq, [
        (1, ((F(0), F(0)), (F(1), F(0)))),
        (1, ((F(1), F(0)), (F(1), F(1)))),
        (1, ((F(1), F(1)), (F(0), F(1)))),
        (1, ((F(0), F(1)), (F(0), F(0)))),
    ])
    center = (F(1, 2), F(1, 2))
    disk = cone_fill_chain(rim, center, sq)
    assert disk.boundary() == rim
    with pytest.raises(GeometryError):
        cone_fill_chain(rim, (F(2), F(2)), sq)
    # the circle is not star-shaped about a vertex: the edge opposite it
    # and the vertex lie in no common simplex
    with pytest.raises(GeometryError, match="cone certificate failed"):
        cone_fill_chain(circle_cycle(s1), s1.vertices[0], s1)
    one_edge = LipschitzChain.from_simplices(
        sq, [(1, ((F(0), F(0)), (F(1), F(0))))])
    with pytest.raises(InputError):
        cone_fill_chain(one_edge, center, sq)


def test_torus_fill_makes_no_generic_point_test(torus, torus_balls,
                                                monkeypatch):
    # point location goes through the complex's cached inverses only
    calls = []
    real = geometry.point_in_simplex

    def counted(p, verts):
        calls.append(p)
        return real(p, verts)

    # complexes locates points without the generic test, which then lives
    # in geometry alone
    assert not hasattr(complexes, "point_in_simplex")
    monkeypatch.setattr(geometry, "point_in_simplex", counted)
    rng = random.Random(5)
    items = spaces.random_torus_cycle(torus, rng)
    T = PolyhedralCurrent.from_tuples(torus.ambient_dim, items, 1)
    res = zigzag_fill(T, torus_balls)
    assert res.chain.boundary().is_zero()
    assert calls == []


def test_cover_membership_table(torus, monkeypatch):
    # the nerve builds each ball's membership of the depth-2 sample
    # vertices once, without contains(); a fill reads the tables there and
    # the per-point memo elsewhere, and asks contains() nothing, besides the
    # simplex tests of split
    cover = spaces.load_cover(torus, "torus_balls")
    real = complexes.BallCover.contains
    real_inside = complexes.BallCover.simplex_inside
    direct, simplex_tests = [], []

    def counted(self, i, p):
        if not simplex_tests:
            direct.append(p)
        return real(self, i, p)

    def simplex_inside(self, i, tup):
        simplex_tests.append(tup)
        try:
            return real_inside(self, i, tup)
        finally:
            simplex_tests.pop()

    monkeypatch.setattr(complexes.BallCover, "contains", counted)
    monkeypatch.setattr(complexes.BallCover, "simplex_inside", simplex_inside)
    samples = torus.sample_vertices(2)
    nerve = Nerve(cover, max_arity=3)
    assert not direct and len(cover.members(2)) == len(samples)

    # the predicate path: contains() at every sample vertex
    witnesses = {}
    for depth in (2, 3):
        for p in torus.sample_vertices(depth):
            inside = [i for i in range(len(cover)) if real(cover, i, p)]
            assert cover.members(depth)[p] == frozenset(inside)
            if depth == 2:
                for arity in range(1, 4):
                    for tup in combinations(inside, arity):
                        witnesses.setdefault(tup, p)
    assert nerve.witnesses == witnesses

    items = spaces.random_torus_cycle(torus, random.Random(6))
    T = PolyhedralCurrent.from_tuples(torus.ambient_dim, items, 1)
    direct.clear()
    res = zigzag_fill(T, cover, nerve=nerve)
    assert direct == []
    # the same fill with contains() asked at every use
    fresh = spaces.load_cover(torus, "torus_balls")
    monkeypatch.setattr(fresh, "members", lambda depth: {
        p: frozenset(i for i in range(len(fresh)) if real(fresh, i, p))
        for p in torus.sample_vertices(depth)})
    again = zigzag_fill(T, fresh, nerve=nerve)
    assert res.chain.terms == again.chain.terms
    assert res.filling.terms == again.filling.terms


def test_zigzag_locates_each_point_once(monkeypatch):
    """A seeded circle fill and cancel tests each top locator, and
    converts to integers, at most once per distinct point that the complex
    or the cover locates: the carrier and cover tests read per-point memos.
    Wall-clock is not gated."""
    s1 = spaces.load_space("s1")
    cover = spaces.load_cover(s1, "s1_arcs3")
    located = {"tops": set(), "balls": set()}
    work = {"scaled": 0, "integer_form": 0}

    def recorded(real, key):
        def wrapper(self, p):
            located[key].add(p)
            return real(self, p)
        return wrapper

    def counted(real, key):
        def wrapper(*args):
            work[key] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(complexes.MetricComplex, "tops_holding",
                        recorded(complexes.MetricComplex.tops_holding, "tops"))
    monkeypatch.setattr(complexes.BallCover, "balls_holding",
                        recorded(complexes.BallCover.balls_holding, "balls"))
    monkeypatch.setattr(complexes._TopLocator, "_scaled",
                        counted(complexes._TopLocator._scaled, "scaled"))
    monkeypatch.setattr(complexes, "integer_form",
                        counted(complexes.integer_form, "integer_form"))
    rng = random.Random(44)
    nerve = Nerve(cover, max_arity=3)
    for _ in range(3):
        items = spaces.random_circle_cycle(s1, rng)
        T = PolyhedralCurrent.from_tuples(3, items, 1)
        res = zigzag_fill(T, cover, nerve=nerve)
        z = res.chain - LipschitzChain.from_simplices(s1, items)
        w = zigzag_cancel(z, res.filling, cover, nerve=nerve)
        assert w.boundary() == z
    tops, balls = len(located["tops"]), len(located["balls"])
    assert tops and balls
    n = len(s1.top_simplices())
    assert work["scaled"] <= n * tops
    # besides one per located point, one per locator built
    assert work["integer_form"] <= tops + balls + n


def test_zigzag_charts_each_segment_once(monkeypatch):
    """A seeded circle fill and cancel runs one echelon form per distinct
    simplex that reduce charts: flat keys are kept per simplex, so the
    zero tests re-read them.  Wall-clock is not gated."""
    s1 = spaces.load_space("s1")
    cover = spaces.load_cover(s1, "s1_arcs3")
    charted = set()
    echelons = []
    real_chart, real_rref = currents._flat_chart, currents.rref

    def chart(tup):
        charted.add(tup)
        return real_chart(tup)

    def rref(*args):
        echelons.append(args)
        return real_rref(*args)

    monkeypatch.setattr(currents, "_FLATS", {}, raising=False)
    monkeypatch.setattr(currents, "_flat_chart", chart)
    monkeypatch.setattr(currents, "rref", rref)
    rng = random.Random(44)
    nerve = Nerve(cover, max_arity=3)
    for _ in range(3):
        items = spaces.random_circle_cycle(s1, rng)
        T = PolyhedralCurrent.from_tuples(3, items, 1)
        res = zigzag_fill(T, cover, nerve=nerve)
        z = res.chain - LipschitzChain.from_simplices(s1, items)
        w = zigzag_cancel(z, res.filling, cover, nerve=nerve)
        assert w.boundary() == z
    assert charted
    assert len(echelons) <= len(charted)


def test_cancel_without_triples_names_the_triple_step(torus, torus_balls):
    # cancel eliminates up to triples; a pair-only nerve leaves a residual
    nerve = Nerve(torus_balls, max_arity=2)
    for seed in range(4):
        items = spaces.random_torus_cycle(torus, random.Random(seed))
        T = PolyhedralCurrent.from_tuples(torus.ambient_dim, items, 1)
        res = zigzag_fill(T, torus_balls, nerve=nerve)
        z = res.chain - LipschitzChain.from_simplices(torus, items)
        with pytest.raises(GeometryError) as err:
            zigzag_cancel(z, res.filling, torus_balls, nerve=nerve)
        assert str(err.value).endswith("(cancel, triples)")


WALK_STEPS = ("split", "solve_phi", "fill_zero_chain", "cone_fill_chain",
              "cone_fill_current", "bracket_inverse_points")


def test_zigzag_step_counts(s1, arcs3, monkeypatch):
    # how often one fill and one cancel of a circle loop call each step
    counts = {}
    for name in WALK_STEPS:
        real = getattr(cech, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cech, name, counted)
    rng = random.Random(44)
    nerve = Nerve(arcs3, max_arity=3)
    for _ in range(3):
        items = spaces.random_circle_cycle(s1, rng)
        T = PolyhedralCurrent.from_tuples(3, items, 1)
        counts.clear()
        res = zigzag_fill(T, arcs3, nerve=nerve)
        assert counts == {"split": 3, "solve_phi": 1,
                          "bracket_inverse_points": 3,
                          "fill_zero_chain": 3, "cone_fill_current": 3}
        z = res.chain - LipschitzChain.from_simplices(s1, items)
        counts.clear()
        zigzag_cancel(z, res.filling, arcs3, nerve=nerve)
        assert counts == {"split": 2, "solve_phi": 3, "cone_fill_chain": 3}


def test_walk_certificates_catch_a_broken_step(s1, arcs3, monkeypatch):
    items = spaces.random_circle_cycle(s1, random.Random(44))
    z = LipschitzChain.from_simplices(s1, items)
    T = bracket(z)
    with monkeypatch.context() as m:
        m.setattr(cech, "solve_phi", lambda Y, nerve, context="": {})
        with pytest.raises(GeometryError, match="descent step 1 mismatched"):
            zigzag_descend(z, arcs3)
    with monkeypatch.context() as m:
        m.setattr(cech, "cone_fill_current",
                  lambda R, apex, complex_, context="":
                  PolyhedralCurrent.from_tuples(3, [(1, s1.vertices)]))
        with pytest.raises(GeometryError, match="fill verification failed"):
            zigzag_fill(T, arcs3)
    res = zigzag_fill(T, arcs3)
    z = res.chain - z
    with monkeypatch.context() as m:
        m.setattr(cech, "cone_fill_chain",
                  lambda x, apex, complex_, context="":
                  LipschitzChain.zero(s1, 2))
        with pytest.raises(GeometryError, match="cancel verification failed"):
            zigzag_cancel(z, res.filling, arcs3)


def test_every_column_is_keyed_by_sorted_ball_tuples(s1, arcs3, torus,
                                                     torus_balls):
    # one key format through the walk: column p, split parts included, is
    # keyed by sorted (p+1)-tuples of ball indices
    def assert_keys(columns):
        for p, col in enumerate(columns):
            assert col
            for K in col:
                assert type(K) is tuple and len(K) == p + 1
                assert list(K) == sorted(set(K))

    T = PolyhedralCurrent.from_tuples(
        3, spaces.random_circle_cycle(s1, random.Random(7)), 1)
    z = LipschitzChain.from_simplices(
        torus, spaces.random_torus_cycle(torus, random.Random(8)))
    from mhom.chaincomplex import homology_data
    from mhom.chains import chain_from_vector
    C, _ = torus.chain_complex()
    top = chain_from_vector(torus, 2, homology_data(C, 2).generators()[0])
    for x, cover in ((T, arcs3), (z, torus_balls), (top, torus_balls)):
        nerve = Nerve(cover, max_arity=3)
        parts = split(x, cover)
        W = solve_phi({K: part.boundary() for K, part in parts.items()},
                      nerve)
        assert_keys([parts, W])
        columns = cech._descend(x, cover, nerve, ("(test)",) * x.degree)
        assert len(columns) == x.degree + 1
        assert_keys(columns)


def _zigzag_terms(complex_, cover, items):
    """Terms of the fill chain, its filling current and the cancelling
    chain of one loop, as lists of items in dict order."""
    nerve = Nerve(cover, max_arity=3)
    T = PolyhedralCurrent.from_tuples(complex_.ambient_dim, items, 1)
    res = zigzag_fill(T, cover, nerve=nerve)
    z = res.chain - LipschitzChain.from_simplices(complex_, items)
    w = zigzag_cancel(z, res.filling, cover, nerve=nerve)
    return [list(x.terms.items()) for x in (res.chain, res.filling, w)]


def _seeded_loops(s1, torus):
    return ((s1, "s1_arcs3",
             spaces.random_circle_cycle(s1, random.Random(9))),
            (torus, "torus_balls",
             spaces.random_torus_cycle(torus, random.Random(9))))


def test_zigzag_terms_are_found_by_plain_fraction_tuples(s1, torus):
    # a point's stored hash is the plain tuple's: callers key their own
    # dicts by tuples of plain Fractions next to the terms returned
    for X, name, items in _seeded_loops(s1, torus):
        for terms in _zigzag_terms(X, spaces.load_cover(X, name), items):
            assert terms
            found = dict(terms)
            plain = {}
            for tup, w in terms:
                key = tuple(tuple(F(x) for x in p) for p in tup)
                assert all(type(x) is F for p in key for x in p)
                assert found[key] == w and key in found
                plain[key] = w
            assert all(plain[tup] == w for tup, w in terms)


def test_zigzag_terms_survive_table_restarts(s1, torus, monkeypatch):
    # with the point table started over every 8 points, a circle and a
    # torus fill and cancel give the same terms in the same order
    loops = _seeded_loops(s1, torus)
    want = [_zigzag_terms(X, spaces.load_cover(X, name), items)
            for X, name, items in loops]
    monkeypatch.setattr(rational, "_POINTS", {})
    monkeypatch.setattr(rational, "MEMO_LIMIT", 8)
    for (X, name, items), terms in zip(loops, want):
        cover = spaces.load_cover(X, name)
        assert _zigzag_terms(X, cover, items) == terms
    assert len(rational._POINTS) <= 8
    points = {p for run in want for terms in run for tup, _ in terms
              for p in tup}
    assert len(points) > 8
