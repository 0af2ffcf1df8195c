"""End-to-end acceptance gate.

Each test covers one headline guarantee and prints a single
``[acceptance] name: PASS|FAIL`` line; run with ``pytest -s`` to see them.
All comparisons are exact (rational or radical-sum arithmetic) unless a
tolerance is written out explicitly.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from mhom import cech, spaces
from mhom.bracket import (bracket, bracket_inverse_points,
                          brackets_of_generators, pairing_matrix)
from mhom.cech import Nerve, augment, cech_boundary, solve_phi, split
from mhom.chaincomplex import homology_data
from mhom.chains import LipschitzChain, chain_from_vector
from mhom.cli import _overlap_kernel
from mhom.complexes import PLMap, mcshane_extension
from mhom.currents import PolyhedralCurrent
from mhom.geometry import det_fraction
from mhom.rational import dist2

from oracles import equicontinuity_gap

F = Fraction

GOLDEN = {
    "s1": ["Z", "Z"],
    "s2": ["Z", "0", "Z"],
    "torus": ["Z", "Z^2", "Z"],
    "rp2": ["Z", "Z/2", "0"],
    "klein": ["Z", "Z + Z/2", "0"],
    "wedge": ["Z", "Z^2"],
}

GOLDEN_PAIRS = {
    ("disc_pair", "boundary"): ["0", "0", "Z"],
    ("annulus_pair", "outer"): ["0", "0", "0"],
}


def report(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def random_simplicial_chain(complex_, degree, rng, span=4):
    basis = complex_.chain_basis()[degree]
    items = []
    for s in basis:
        w = rng.randrange(-span, span + 1)
        if w:
            items.append((w, complex_.points_of(s)))
    if not items:
        items.append((1, complex_.points_of(basis[0])))
    return LipschitzChain.from_simplices(complex_, items)


def random_degenerate_chain(complex_, degree, rng):
    """Affine simplices with random rational vertices inside top cells."""
    tops = complex_.top_simplices()
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        cell = complex_.points_of(tops[rng.randrange(len(tops))])
        pts = []
        for _ in range(degree + 1):
            ws = [F(rng.randrange(1, 6)) for _ in cell]
            tot = sum(ws)
            ws = [w / tot for w in ws]
            pts.append(tuple(sum(w * v[i] for w, v in zip(ws, cell))
                             for i in range(len(cell[0]))))
        tup = tuple(pts)
        terms[tup] = terms.get(tup, 0) + rng.randrange(-3, 4) or 1
    terms = {t: w for t, w in terms.items() if w}
    return LipschitzChain(complex_, degree, terms)


def test_acceptance_golden_homology():
    t0 = time.perf_counter()
    ok = True
    for name, want in GOLDEN.items():
        complex_ = spaces.load_space(name)
        C, _ = complex_.chain_complex()
        datas = [homology_data(C, k) for k in range(len(C.dims))]
        ok = ok and [str(d.group) for d in datas] == want
        # the two chain-level theories realize the same generators
        for k, d in enumerate(datas):
            for vec in d.generators():
                ch = chain_from_vector(complex_, k, vec)
                ok = ok and ch.boundary().is_zero()
                ok = ok and bracket(ch).boundary().is_zero()
    for (name, sub), want in GOLDEN_PAIRS.items():
        pair = spaces.load_space(name).relative_pair(sub)
        Q = pair.quotient_complex
        got = [str(homology_data(Q, k).group) for k in range(len(Q.dims))]
        ok = ok and got == want
    elapsed = time.perf_counter() - t0
    report("golden homology (both chain theories, < 5 s)",
           ok and elapsed < 5.0)


def test_acceptance_stokes_suite():
    rng = random.Random(101)
    torus = spaces.load_space("torus")
    s2 = spaces.load_space("s2")
    count = 0
    ok = True
    for _ in range(35):
        for cx, k in ((torus, 1), (torus, 2), (s2, 1), (s2, 2)):
            c = random_simplicial_chain(cx, k, rng)
            ok = ok and bracket(c.boundary()).equals(bracket(c).boundary())
            ok = ok and c.boundary().boundary().is_zero()
            ok = ok and bracket(c).boundary().boundary().is_zero()
            count += 1
    for _ in range(40):
        for cx in (torus, s2):
            c = random_degenerate_chain(cx, 3, rng)
            ok = ok and bracket(c.boundary()).equals(bracket(c).boundary())
            ok = ok and c.boundary().boundary().is_zero()
            count += 1
    report(f"chain map and Stokes identities ({count} seeded chains, "
           f"degrees 1-3)", ok and count >= 200)


def test_acceptance_green_pairing():
    a, b, c, d = (F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))
    square = PolyhedralCurrent.from_tuples(2, [(1, (a, b, c)), (1, (a, c, d))])
    rim = square.boundary()
    y = PLMap.coordinate(2, 1)
    x = PLMap.coordinate(2, 0)
    ok = rim.evaluate(y, [x]) == -1
    for const in (F(0), F(3), F(-7, 2)):
        ok = ok and rim.evaluate(y, [PLMap.constant((const,))]) == 0
    report("boundary circulation of y dx over the unit square = -1, "
           "constant entries vanish", ok)


def random_current(rng, degree):
    items = []
    for _ in range(rng.randrange(1, 4)):
        tup = tuple((F(rng.randrange(-4, 5)), F(rng.randrange(-4, 5)))
                    for _ in range(degree + 1))
        items.append((rng.randrange(-3, 4) or 1, tup))
    return PolyhedralCurrent.from_tuples(2, items, degree)


def test_acceptance_prism_and_cone():
    rng = random.Random(102)
    ok = True
    prisms = 0
    for _ in range(20):
        for k in (0, 1, 2):
            T = random_current(rng, k)
            lhs = T.product_interval().boundary()
            rhs = T.embed_at_height(1) - T.embed_at_height(0)
            if k >= 1:
                rhs = rhs - T.boundary().product_interval()
            ok = ok and lhs.equals(rhs)
            prisms += 1
    cones = 0
    for _ in range(55):
        T = random_current(rng, 2).boundary()
        apex = (F(rng.randrange(-4, 5)), F(rng.randrange(-4, 5)))
        S = -(T.cone(apex))
        ok = ok and S.boundary().equals(-T)
        pts = set()
        for tup in T.reduce().terms:
            pts.update(tup)
        pts.add(apex)
        spread = (lambda ps: max(dist2(p, q) for p in ps for q in ps)
                  if ps else F(0))
        before = spread(pts)
        after_pts = set()
        for tup in T.cone(apex).reduce().terms:
            after_pts.update(tup)
        ok = ok and (not after_pts or spread(after_pts) <= before)
        cones += 1
    report(f"product and cone boundary identities ({prisms} prisms, "
           f"{cones} cones, diameters compared exactly)",
           ok and prisms >= 50 and cones >= 50)


def smallest_integer_lipschitz_bound(m, limit=40):
    for L in range(limit):
        if m.lipschitz_at_most(L):
            return L
    raise AssertionError("no small integer bound")


def test_acceptance_mass_estimates():
    rng = random.Random(103)
    ok = True
    pushes = 0
    for _ in range(50):
        for k in (1, 2):
            T = random_current(rng, k)
            mat = [[rng.randrange(-3, 4) for _ in range(2)] for _ in range(2)]
            phi = PLMap.affine(mat)
            L = smallest_integer_lipschitz_bound(phi)
            img = T.pushforward(phi)
            ok = ok and img.mass() <= T.mass().scale(F(L) ** k)
            pushes += 1
    subs = 0
    for _ in range(100):
        k = rng.choice((1, 2))
        T1 = random_current(rng, k)
        T2 = random_current(rng, k)
        extra = -T1 if rng.randrange(3) == 0 else T2
        ok = ok and (T1 + extra).mass() <= T1.mass() + extra.mass()
        subs += 1
    unit_entries = [PLMap.affine([[1, 0]]), PLMap.affine([[0, 1]]),
                    PLMap.affine([[F(1, 2), F(1, 2)]]),
                    PLMap.affine([[F(3, 5), F(4, 5)]]),
                    PLMap.affine([[F(-3, 5), F(4, 5)]]),
                    PLMap.affine([[0, 0]], offset=(F(2),))]
    fs = [PLMap.coordinate(2, 1), PLMap.coordinate(2, 0),
          PLMap.affine([[1, 1]]), PLMap.affine([[2, -1]])]
    a, b, c, d = (F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))
    rim = PolyhedralCurrent.from_tuples(
        2, [(1, (a, b, c)), (1, (a, c, d))]).boundary()
    equi = 0
    for _ in range(100):
        T = rim if rng.randrange(2) else random_current(rng, 1)
        f = fs[rng.randrange(len(fs))]
        p1 = unit_entries[rng.randrange(len(unit_entries))]
        p2 = unit_entries[rng.randrange(len(unit_entries))]
        lhs, rhs = equicontinuity_gap(T, f, [p1], [p2])
        ok = ok and lhs <= rhs
        equi += 1
    report(f"mass under pushforward, subadditivity and equicontinuity "
           f"({pushes}+{subs}+{equi} seeded cases)",
           ok and pushes >= 100 and subs >= 100 and equi >= 100)


def circle_cycle(s1):
    a, b, c = s1.vertices
    return LipschitzChain.from_simplices(s1, [(1, (a, b)), (1, (b, c)),
                                              (1, (c, a))])


def test_acceptance_cosheaf_suite():
    s1 = spaces.load_space("s1")
    ok = True
    for cover_name in ("s1_arcs2", "s1_arcs3"):
        cover = spaces.load_cover(s1, cover_name)
        nerve = Nerve(cover, max_arity=3)
        rng = random.Random(104)
        surj = 0
        kern = 0
        for i in range(50):
            items = spaces.random_circle_cycle(s1, rng)
            ch = LipschitzChain.from_simplices(s1, items).scale(
                rng.randrange(-2, 3) or 1)
            cur = bracket(ch)
            # every global element is a sum of ball-supported pieces
            parts = split(ch, cover)
            ok = ok and augment(parts, ch.scale(0)) == ch
            cparts = split(cur, cover)
            ok = ok and augment(cparts, cur.scale(0)).equals(cur)
            # an empty split sums to the zero it starts from
            empty = augment({}, cur.scale(0))
            ok = (ok and type(empty) is PolyhedralCurrent and empty.is_zero()
                  and empty.degree == cur.degree)
            surj += 2
            # augmentation kernels come from pairwise overlaps
            deg = i % 2
            ker = _overlap_kernel(s1, cover, nerve, deg, index=i)
            W = solve_phi(ker, nerve)
            img = cech_boundary(W)
            for A in set(img) | set(ker):
                gap = img.get(A, LipschitzChain.zero(s1, deg))
                gap = gap - ker.get(A, LipschitzChain.zero(s1, deg))
                ok = ok and gap.is_zero()
            kerc = {A: bracket(x) for A, x in ker.items()}
            Wc = solve_phi(kerc, nerve)
            imgc = cech_boundary(Wc)
            for A in set(imgc) | set(kerc):
                gap = imgc.get(A, PolyhedralCurrent.zero(3, deg))
                gap = gap - kerc.get(A, PolyhedralCurrent.zero(3, deg))
                ok = ok and gap.is_zero()
            kern += 2
        ok = ok and surj >= 50 and kern >= 50
    # the index-deletion map squares to zero on seeded components
    rng = random.Random(105)
    s1pts = s1.sample_vertices(1)
    for _ in range(20):
        comps = {}
        for tup in combinations(range(5), 3):
            terms = {(p,): rng.randrange(-3, 4)
                     for p in rng.sample(s1pts, 2)}
            terms = {t: w for t, w in terms.items() if w}
            if terms:
                comps[tup] = LipschitzChain(s1, 0, terms)
        twice = cech_boundary(cech_boundary(comps))
        ok = ok and all(v.is_zero() for v in twice.values())
    # double-complex squares: verified descents for chains and currents
    for cover_name in ("s1_arcs2", "s1_arcs3"):
        cover = spaces.load_cover(s1, cover_name)
        rng = random.Random(106)
        for _ in range(5):
            items = spaces.random_circle_cycle(s1, rng)
            ch = LipschitzChain.from_simplices(s1, items)
            cech.zigzag_descend(ch, cover)
            cech.zigzag_descend(bracket(ch), cover)
    report("cosheaf splitting and kernel witnesses on both arc covers, "
           "for chains and currents", ok)


def test_acceptance_comparison_pipeline():
    ok = True
    for space_name, cover_name, cycles in (
            ("s1", "s1_arcs3", spaces.random_circle_cycle),
            ("torus", "torus_balls", spaces.random_torus_cycle)):
        t0 = time.perf_counter()
        complex_ = spaces.load_space(space_name)
        cover = spaces.load_cover(complex_, cover_name)
        nerve = Nerve(cover, max_arity=3)
        C, _ = complex_.chain_complex()
        data = homology_data(C, 1)
        gens = brackets_of_generators(complex_, 1, data)
        forms = spaces.pairing_forms(space_name, complex_)
        M = pairing_matrix(gens, forms)
        W = [[2 * v for v in row] for row in M]
        ok = ok and all(v.denominator == 1 for row in W for v in row)
        ok = ok and abs(det_fraction(W)) == 1
        rng = random.Random(107)
        fills = 0
        cancels = 0
        for _ in range(10):
            items = cycles(complex_, rng)
            T = PolyhedralCurrent.from_tuples(complex_.ambient_dim, items, 1)
            res = cech.zigzag_fill(T, cover, nerve=nerve)
            ok = ok and res.filling.boundary().equals(bracket(res.chain) - T)
            fills += 1
            z = res.chain - LipschitzChain.from_simplices(complex_, items)
            w = cech.zigzag_cancel(z, res.filling, cover, nerve=nerve)
            ok = ok and w.boundary() == z
            cancels += 1
        elapsed = time.perf_counter() - t0
        ok = ok and fills >= 10 and cancels >= 10 and elapsed < 60.0
    report("comparison pipeline on the circle and the torus "
           "(unimodular pairing, 10 fills and 10 cancels each, < 60 s)", ok)


def test_acceptance_degree_zero_roundtrip():
    rng = random.Random(108)
    ok = True
    count = 0
    for name in ("s1", "s2", "torus"):
        complex_ = spaces.load_space(name)
        pts = complex_.sample_vertices(1)
        for _ in range(34):
            terms = {}
            for p in rng.sample(pts, min(4, len(pts))):
                w = rng.randrange(-5, 6)
                if w:
                    terms[(p,)] = w
            ch = LipschitzChain(complex_, 0, terms)
            T = bracket(ch)
            ok = ok and bracket_inverse_points(T, complex_) == ch
            ok = ok and bracket(bracket_inverse_points(T, complex_)).equals(T)
            count += 1
    report(f"degree-zero chains and point currents identify exactly "
           f"({count} roundtrips)", ok and count >= 100)


def test_acceptance_mcshane_extension():
    rng = random.Random(109)
    ok = True
    count = 0
    for name in ("s1", "s2"):
        complex_ = spaces.load_space(name)
        verts = complex_.sample_vertices(1)
        for _ in range(25):
            L = F(rng.randrange(2, 9))
            slope = F(rng.randrange(-L.numerator, L.numerator + 1))
            anchors = sorted({verts[rng.randrange(len(verts))]
                              for _ in range(rng.randrange(2, 5))})
            data = [(p, slope * p[0]) for p in anchors]
            ext = mcshane_extension(complex_, data, L, depth=1)
            ok = ok and all(ext.scalar(p) == v for p, v in data)
            vals = {p: ext.scalar(p) for p in verts}
            for p, q in combinations(verts, 2):
                gap = vals[p] - vals[q]
                ok = ok and gap * gap <= L * L * dist2(p, q)
            count += 1
    report(f"largest Lipschitz extensions match anchors and obey the "
           f"modulus on all sampled pairs ({count} seeded cases)",
           ok and count >= 50)
