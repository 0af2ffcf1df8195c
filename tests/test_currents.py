import random
import sys
from fractions import Fraction

import pytest

from mhom import currents, rational
from mhom.complexes import PLMap
from mhom.currents import (PolyhedralCurrent, _flat_chart, _reduce_in_chart,
                           _reduce_on_line)
from mhom.errors import InputError
from mhom.rational import RadicalSum, dist2
from mhom.weighted import WeightedSimplices

from oracles import (equicontinuity_gap, integral_of_product,
                     reduce_at_witness_points)
from test_acceptance import random_current
from test_chains import assert_algebra_adopts_terms

F = Fraction


def line_current(*segs):
    return PolyhedralCurrent.from_tuples(
        1, [(w, ((F(a),), (F(b),))) for w, a, b in segs])


def square_current():
    a, b, c, d = (F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))
    return PolyhedralCurrent.from_tuples(2, [(1, (a, b, c)), (1, (a, c, d))])


def x_map():
    return PLMap.coordinate(2, 0)


def y_map():
    return PLMap.coordinate(2, 1)


def test_reduce_merges_overlap():
    T = line_current((1, 0, 2), (1, 1, 3))
    red = T.reduce()
    assert len(red.pieces) == 3
    weights = sorted(abs(w) for w in red.pieces.values())
    assert weights == [1, 1, 2]
    assert T.mass() == RadicalSum.from_rational(4)
    assert T.equals(red)


def test_reduce_cancels_opposite_orientations():
    T = line_current((1, 0, 2), (1, 2, 0))
    assert T.is_zero()
    half = line_current((1, 0, 2), (-1, 0, 1))
    assert half.equals(line_current((1, 1, 2)))


def flat_current(rng, k, pieces=None):
    """Pieces of degree k in one or two random k-flats of R^3, with
    reversed copies, repeated pieces and degenerate pieces mixed in.

    pieces is the number drawn before the copies (so the current has up to
    twice as many terms); by default 2-4 below degree 3 and 3 in it."""
    flats = []
    for _ in range(rng.choice([1, 1, 2])):
        anchor = tuple(F(rng.randrange(-2, 3)) for _ in range(3))
        dirs = [tuple(F(rng.randrange(-2, 3), rng.choice([1, 2]))
                      for _ in range(3)) for _ in range(k)]
        flats.append((anchor, dirs))

    def point(flat):
        anchor, dirs = flat
        cs = [F(rng.randrange(-2, 3), rng.choice([1, 2])) for _ in dirs]
        return tuple(a + sum(c * d[i] for c, d in zip(cs, dirs))
                     for i, a in enumerate(anchor))

    items = []
    if pieces is None:
        pieces = rng.randrange(2, 5) if k < 3 else 3
    for _ in range(pieces):
        flat = rng.choice(flats)
        tup = tuple(point(flat) for _ in range(k + 1))
        w = rng.choice([-2, -1, 1, 2])
        items.append((w, tup))
        roll = rng.randrange(4)
        if roll == 0:
            items.append((w, (tup[1], tup[0]) + tup[2:]))
        elif roll == 1:
            items.append((rng.choice([-1, 1]), tup[1:] + tup[:1]))
        elif roll == 2:
            items.append((w, tup[:-1] + (tup[0],)))
    return PolyhedralCurrent.from_tuples(3, items, degree=k)


def test_reduce_matches_witness_point_rule():
    rng = random.Random(46)
    for k, cases in ((1, 12), (2, 12), (3, 6)):
        for _ in range(cases):
            T = flat_current(rng, k)
            assert T.reduce().terms == reduce_at_witness_points(T)
    # longer lines; the oracle grows about cubically with the piece count
    for _ in range(6):
        T = flat_current(rng, 1, pieces=5)
        assert T.reduce().terms == reduce_at_witness_points(T)


def line_pieces(rng, lines, count):
    """count weighted segments on the given number of random lines of R^3,
    drawn from a small pool of positions so that they overlap, repeat,
    reverse and share endpoints."""
    flats = []
    for _ in range(lines):
        anchor = tuple(F(rng.randrange(-3, 4)) for _ in range(3))
        d = (0, 0, 0)
        while not any(d):
            d = tuple(F(rng.randrange(-2, 3), rng.choice([1, 3]))
                      for _ in range(3))
        flats.append((anchor, d))
    pool = [F(n, 4) for n in range(-8, 9)]
    items = []
    while len(items) < count:
        anchor, d = rng.choice(flats)
        u, v = rng.sample(pool, 2)
        seg = tuple(tuple(a + t * x for a, x in zip(anchor, d))
                    for t in (u, v))
        w = rng.choice([-2, -1, 1, 1, 2])
        items.append((w, seg))
        roll = rng.randrange(3)
        if roll == 0:
            items.append((rng.choice([-1, 1]), seg[::-1]))
        elif roll == 1:
            items.append((w, seg))
    return items[:count]


def test_line_sweep_matches_arrangement_in_order():
    rng = random.Random(49)
    for _ in range(30):
        items = line_pieces(rng, rng.randrange(1, 4), rng.randrange(10, 31))
        groups = {}
        for w, tup in items:
            fkey, pivots = _flat_chart(tup)
            groups.setdefault(fkey, (pivots, []))[1].append((tup, w))
        for fkey, (pivots, members) in groups.items():
            assert _reduce_on_line(fkey, pivots, members) == \
                _reduce_in_chart(fkey, pivots, members)


def test_line_sweep_ignores_member_order():
    """reduce does not sort a degree-one current's pieces: currents built
    from shuffled copies of the same items reduce to the same terms, in the
    same order."""
    rng = random.Random(52)
    for _ in range(20):
        items = line_pieces(rng, rng.randrange(1, 4), rng.randrange(5, 25))
        want = list(PolyhedralCurrent.from_tuples(3, items).reduce()
                    .terms.items())
        assert want
        for _ in range(3):
            rng.shuffle(items)
            got = PolyhedralCurrent.from_tuples(3, items).reduce()
            assert list(got.terms.items()) == want


def test_reduce_orders_points_on_integers(count_calls):
    """reduce sorts and sweeps the interned points of pieces of degree 0
    and 1 without a Fraction comparison: Q order is integer order.  (In
    degree 2 it cuts in chart coordinates, which are plain Fractions.)"""
    rng = random.Random(53)
    cases = [PolyhedralCurrent.from_tuples(3, line_pieces(rng, 2, 12))
             for _ in range(5)]
    cases += [random_current(rng, k) for k in (0, 1) for _ in range(5)]
    calls = count_calls(Fraction, "_richcmp")
    for T in cases:
        T.reduce()
    assert calls == []


def test_flat_memo_stays_within_its_limit(monkeypatch):
    """With the flat memo's limit at 2, reduce gives the same terms in the
    same order, and the memo never holds more than 2 simplices."""
    rng = random.Random(53)
    cases = [flat_current(rng, k) for k in (1, 1, 2, 2, 3)]
    cases.append(PolyhedralCurrent.from_tuples(3, line_pieces(rng, 2, 20)))
    want = [list(T.reduce().terms.items()) for T in cases]
    monkeypatch.setattr(currents, "_FLATS", {})
    monkeypatch.setattr(rational, "MEMO_LIMIT", 2)
    sizes = []
    real = currents._flat_chart

    def watched(tup):
        out = real(tup)
        sizes.append(len(currents._FLATS))
        return out

    monkeypatch.setattr(currents, "_flat_chart", watched)
    assert [list(T.reduce().terms.items()) for T in cases] == want
    assert len(sizes) > 2 and max(sizes) <= 2


def test_current_difference_is_sum_with_the_negative():
    """a - b is built in one pass, with the terms of a + (-b) in their
    order."""
    rng = random.Random(66)
    for _ in range(30):
        k = rng.choice((0, 1, 2))
        a, b = random_current(rng, k), random_current(rng, k)
        for x, y in ((a, b), (b, a), (a, a), (a + b, a)):
            assert list((x - y).terms.items()) == \
                list((x + (-y)).terms.items())


def test_long_line_reduces_within_the_fragment_budget():
    """Many overlapping segments on one line reduce by the sweep, which
    cuts nothing, so the arrangement's fragment cap does not apply; each
    output weight is the number of input segments over that interval."""
    rng = random.Random(50)
    anchor, d = (F(1, 3), F(-2)), (F(3, 5), F(2, 7))
    spans = []
    for _ in range(230):
        u, v = sorted(rng.sample(range(-2000, 2000), 2))
        spans.append((F(u, 7), F(v, 7)))

    def at(t):
        return tuple(a + t * x for a, x in zip(anchor, d))

    T = PolyhedralCurrent.from_tuples(
        2, [(1, (at(u), at(v))) for u, v in spans])
    red = T.reduce()
    assert len(red.terms) > 400
    covered = 0
    for (p, q), w in red.terms.items():
        u, v = (p[0] - anchor[0]) / d[0], (q[0] - anchor[0]) / d[0]
        assert at(u) == p and at(v) == q
        if u > v:
            u, v, w = v, u, -w
        assert w == sum(1 for a, b in spans if a <= u and v <= b)
        covered += w * (v - u)
    # no interval is missing: the weighted lengths add up
    assert covered == sum(b - a for a, b in spans)


def test_degree_one_reduce_cuts_nothing(monkeypatch):
    """Degree one sweeps each line, so it neither cuts a simplex nor builds
    a facet hyperplane; degree two still builds the arrangement."""
    cuts, wrapped = count_calls(monkeypatch, "cut_simplex_by_values")
    assert "mhom.currents" in wrapped
    facets, wrapped = count_calls(monkeypatch, "_facet_hyperplanes")
    assert "mhom.currents" in wrapped
    rng = random.Random(51)
    for _ in range(6):
        flat_current(rng, 1, pieces=6).reduce()
    PolyhedralCurrent.from_tuples(3, line_pieces(rng, 2, 20)).reduce()
    assert cuts == [] and facets == []
    for _ in range(4):
        flat_current(rng, 2).reduce()
    assert cuts and facets


def count_calls(monkeypatch, name):
    """Wrap the function called name in every mhom module that holds it.

    Returns (calls, wrapped): one entry is appended to calls per call, and
    wrapped lists the modules whose binding was replaced."""
    calls = []
    wrapped = []
    for modname, mod in list(sys.modules.items()):
        original = getattr(mod, name, None)
        if modname.startswith("mhom.") and original is not None:
            def counted(*args, original=original):
                calls.append(len(args))
                return original(*args)
            monkeypatch.setattr(mod, name, counted)
            wrapped.append(modname)
    return calls, wrapped


def test_integral_of_product_matches_fresh_evaluation():
    """mass() is the reference integral of the constant 1, term for term."""
    rng = random.Random(64)
    one = PLMap.constant((1,))
    for _ in range(40):
        k = rng.choice((0, 1, 2))
        T = PolyhedralCurrent.from_tuples(2, [
            (rng.choice([-2, -1, 1, 3]),
             tuple((F(rng.randrange(-3, 4)), F(rng.randrange(-3, 4)))
                   for _ in range(k + 1)))
            for _ in range(rng.randrange(1, 4))], degree=k)
        assert list(T.mass().terms.items()) == \
            list(integral_of_product(T, None, one).terms.items())


def test_integral_of_product_interns_nothing():
    """mass() reads the canonical form and adds no point coordinate: on a
    reduced current the intern table does not grow."""
    rng = random.Random(65)
    for _ in range(20):
        T = PolyhedralCurrent.from_tuples(2, [
            (1, tuple((F(rng.randrange(-3, 4)), F(rng.randrange(-3, 4)))
                      for _ in range(3)))], degree=2).reduce()
        before = dict(rational._COORDS)
        T.mass()
        assert rational._COORDS == before


def test_mass_evaluates_once_per_vertex(monkeypatch):
    """The currents of test_acceptance_mass_estimates' pushforward loop:
    mass sums over the canonical form and evaluates no map (the integral
    of the constant 1 that it replaced made 2,952 calls)."""
    rng = random.Random(103)
    currents = []
    for _ in range(50):
        for k in (1, 2):
            T = random_current(rng, k)
            phi = PLMap.affine([[rng.randrange(-3, 4) for _ in range(2)]
                                for _ in range(2)])
            currents += [T.pushforward(phi), T]
    calls = []
    real = PLMap.scalar

    def counted(self, p):
        calls.append(p)
        return real(self, p)

    monkeypatch.setattr(PLMap, "scalar", counted)
    for T in currents:
        T.mass()
    assert calls == []


def test_mass_of_a_form_that_reduces_again():
    """The first degree-2 pushforward that test_acceptance_mass_estimates
    draws has 3 pieces and a 58-piece reduced form, whose own canonical
    form has 1,508 pieces (reduce is not idempotent in degree 2).  mass
    splits each piece's Gram determinant by trial division, where
    factoring all 1,508 of them took over a minute."""
    rng = random.Random(103)
    for k in (1, 2):
        T = random_current(rng, k)
        phi = PLMap.affine([[rng.randrange(-3, 4) for _ in range(2)]
                            for _ in range(2)])
    img = T.pushforward(phi)
    once = img.reduce()
    assert (len(img.terms), len(once.terms)) == (3, 58)
    assert once.mass() == img.mass() == RadicalSum.from_rational(190)


def test_reduce_solves_no_linear_system(monkeypatch):
    """reduce reads chart coordinates off the pivot columns of each flat's
    echelon basis, so no degree calls solve_fraction_system."""
    calls, wrapped = count_calls(monkeypatch, "solve_fraction_system")
    assert "mhom.geometry" in wrapped
    rng = random.Random(47)
    for k in (1, 2, 3):
        for _ in range(4):
            flat_current(rng, k).reduce()
    assert calls == []


def test_algebra_keeps_the_dicts_it_builds(torus, torus_balls, count_calls):
    rng = random.Random(48)
    edges = torus.chain_basis()[1]

    def current():
        return PolyhedralCurrent.from_tuples(torus.ambient_dim, [
            (rng.choice([-2, -1, 1, 2]), torus.points_of(s))
            for s in rng.sample(edges, 6)], degree=1)

    assert_algebra_adopts_terms(current(), current(), torus_balls,
                                count_calls(WeightedSimplices, "__init__"))


def test_support_pieces_inside_originals():
    T = line_current((1, 0, 2), (1, 1, 3))
    originals = [(F(0), F(2)), (F(1), F(3))]
    for tup in T.reduce().terms:
        xs = sorted(p[0] for p in tup)
        assert any(lo <= xs[0] and xs[-1] <= hi for lo, hi in originals)


def test_square_boundary_cancels_diagonal():
    edges = square_current().boundary().reduce()
    assert len(edges.pieces) == 4
    assert edges.mass() == RadicalSum.from_rational(4)
    assert edges.boundary().is_zero()


def test_boundary_squares_to_zero_seeded():
    rng = random.Random(21)
    for _ in range(20):
        items = []
        for _ in range(rng.randrange(1, 5)):
            tri = tuple((F(rng.randrange(0, 7)), F(rng.randrange(0, 7)))
                        for _ in range(3))
            items.append((rng.randrange(-3, 4) or 1, tri))
        T = PolyhedralCurrent.from_tuples(2, items, degree=2)
        assert T.boundary().boundary().is_zero()


def test_circulation_of_height_along_square():
    edges = square_current().boundary()
    assert edges.evaluate(y_map(), [x_map()]) == -1
    const = PLMap.constant((F(5),))
    assert edges.evaluate(y_map(), [const]) == 0


def test_point_evaluation():
    T = PolyhedralCurrent.from_tuples(2, [(3, ((F(1, 2), F(1, 3)),))],
                                      degree=0)
    assert T.evaluate(y_map(), []) == 1
    assert T.mass() == RadicalSum.from_rational(3)


def test_mass_frozen_values():
    tri = PolyhedralCurrent.from_tuples(
        2, [(1, ((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))])
    assert tri.mass() == RadicalSum.from_rational(F(1, 2))
    seg = line_current((2, 0, 1))
    assert seg.mass() == RadicalSum.from_rational(2)
    assert PolyhedralCurrent.zero(2, 1).mass().is_zero()


def test_pushforward_identity_constant_and_mass_bound():
    T = square_current()
    assert T.pushforward(PLMap.affine([[1, 0], [0, 1]])).equals(T)
    squash = T.pushforward(PLMap.constant((F(0), F(0))))
    assert squash.is_zero()
    stretch = PLMap.affine([[2, 0], [0, 1]])
    img = T.pushforward(stretch)
    assert img.mass() == RadicalSum.from_rational(2)
    # factor Lip(map)^degree with Lip = 2, degree = 2
    assert img.mass() <= T.mass().scale(4)


def test_product_interval_boundary_identity():
    rng = random.Random(22)
    for _ in range(10):
        seg = line_current((rng.randrange(-2, 3) or 1, rng.randrange(0, 3),
                            rng.randrange(3, 6)))
        pr = seg.product_interval()
        want = (seg.embed_at_height(1) - seg.embed_at_height(0)
                - seg.boundary().product_interval())
        assert pr.boundary().equals(want)


def test_product_interval_point_and_zero():
    pt = PolyhedralCurrent.from_tuples(1, [(1, ((F(0),),))], degree=0)
    seg = pt.product_interval()
    assert seg.mass() == RadicalSum.from_rational(1)
    assert seg.boundary().equals(
        pt.embed_at_height(1) - pt.embed_at_height(0))
    assert PolyhedralCurrent.zero(1, 0).product_interval().is_zero()


def test_cone_fills_square_boundary():
    cyc = square_current().boundary()
    center = (F(1, 2), F(1, 2))
    filled = cyc.cone(center)
    assert filled.boundary().equals(cyc)
    assert filled.mass() == RadicalSum.from_rational(1)


def test_cone_boundary_identity_on_non_cycle():
    seg = line_current((1, 0, 1)).embed_at_height(0)
    cone = seg.cone((F(0), F(3)))
    want = seg - seg.boundary().cone((F(0), F(3)))
    assert cone.boundary().equals(want)


def test_cone_support_diameter():
    cyc = square_current().boundary()
    apex = (F(1, 2), F(1, 2))
    pts_before = set()
    for tup in cyc.reduce().terms:
        pts_before.update(tup)
    pts_before.add(apex)
    pts_after = set()
    for tup in cyc.cone(apex).reduce().terms:
        pts_after.update(tup)
    diam = lambda pts: max(dist2(p, q) for p in pts for q in pts)
    assert diam(pts_after) <= diam(pts_before)


def test_integral_of_product_frozen():
    seg = line_current((1, 0, 1))
    g = PLMap.coordinate(1, 0)
    # int_0^1 x * x dx = 1/3
    assert integral_of_product(seg, g, g) == RadicalSum.from_rational(F(1, 3))
    assert integral_of_product(seg, None, g) == \
        RadicalSum.from_rational(F(1, 2))


def test_equicontinuity_estimate():
    edges = square_current().boundary()
    f = y_map()
    pis = [x_map()]
    halfx = PLMap.affine([[F(1, 2), 0]])
    lhs, rhs = equicontinuity_gap(edges, f, pis, [halfx])
    assert lhs <= rhs
    lhs, rhs = equicontinuity_gap(edges, f, pis, pis)
    assert lhs.is_zero()
    assert lhs <= rhs


def test_equicontinuity_rejects_steep_entries():
    edges = square_current().boundary()
    steep = PLMap.affine([[2, 0]])
    with pytest.raises(InputError):
        equicontinuity_gap(edges, y_map(), [steep], [x_map()])


def test_degree_mismatch_rejected():
    edges = square_current().boundary()
    with pytest.raises(InputError):
        edges.evaluate(y_map(), [])
    with pytest.raises(InputError):
        PolyhedralCurrent.from_tuples(2, [(1, ((F(0), F(0)),))], degree=1)
