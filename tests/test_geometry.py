import random
from fractions import Fraction
from math import lcm

from mhom import spaces
from mhom.geometry import (canonical_orientation, cut_simplex_by_values,
                           det_fraction, edge_matrix, gram_det,
                           gram_matrix, is_degenerate, point_simplex_dist2,
                           solve_fraction_system)
from mhom.rational import coord, dot

from oracles import det as ref_det
from oracles import point_simplex_dist2 as ref_dist2
from oracles import solve_fraction_system as ref_solve

F = Fraction


def test_cut_fragments_keep_orientation_and_volume():
    """Cutting a non-degenerate k-simplex of R^k along a level set that
    crosses it gives non-degenerate fragments of the parent's orientation,
    each on its listed side, whose volumes add up to the parent's."""
    rng = random.Random(48)
    cases = 0
    while cases < 60:
        k = rng.choice([1, 2, 3])
        tup = tuple(tuple(F(rng.randrange(-4, 5), rng.choice([1, 2, 3]))
                          for _ in range(k)) for _ in range(k + 1))
        parent = det_fraction(edge_matrix(tup))
        normal = tuple(rng.randrange(-3, 4) for _ in range(k))
        vals = [dot(normal, p) for p in tup]
        if parent == 0 or min(vals) == max(vals):
            continue
        cases += 1
        # a level strictly between the extremes, sometimes a vertex value
        inner = sorted(set(vals))[1:-1]
        lo_v, hi_v = min(vals), max(vals)
        r = rng.choice(inner) if inner and rng.randrange(2) else \
            lo_v + (hi_v - lo_v) * F(rng.randrange(1, 8), 8)
        low, high = cut_simplex_by_values(tup, vals, r)
        assert low and high
        volume = 0
        for frags, below in ((low, True), (high, False)):
            for f in frags:
                d = det_fraction(edge_matrix(f))
                assert d != 0
                assert (d > 0) == (parent > 0)
                fvals = [dot(normal, p) for p in f]
                assert all(v <= r if below else v >= r for v in fvals)
                volume += abs(d)
        assert volume == abs(parent)


def test_solve_matches_reference_elimination():
    rng = random.Random(61)
    kinds = set()
    for _ in range(400):
        m, n = rng.randrange(0, 6), rng.randrange(1, 6)
        r = rng.randrange(0, min(m, n) + 1)
        # rank at most r, so some systems are singular, some rows zero
        L = [[rng.randrange(-3, 4) for _ in range(r)] for _ in range(m)]
        R = [[F(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n)]
             for _ in range(r)]
        A = [[sum((L[i][t] * R[t][j] for t in range(r)), F(0))
              for j in range(n)] for i in range(m)]
        if rng.randrange(2):
            x0 = [F(rng.randrange(-5, 6), rng.randrange(1, 4))
                  for _ in range(n)]
            b = [dot(row, x0) for row in A]
        else:
            b = [F(rng.randrange(-5, 6)) for _ in range(m)]
        want = ref_solve(A, b)
        assert solve_fraction_system(A, b) == want
        kinds.add("inconsistent" if want is None else "consistent")
        kinds.add("under" if m < n else "over" if m > n else "square")
        if any(not any(row) for row in A):
            kinds.add("zero row")
    assert kinds == {"consistent", "inconsistent", "under", "over", "square",
                     "zero row"}


def test_locator_rows_match_per_column_solves():
    for name in spaces.builtin_spaces():
        X = spaces.load_space(name)
        for t, loc in zip(X.top_simplices(), X._locators(0)):
            verts = X.points_of(t)
            E, G = edge_matrix(verts), gram_matrix(verts)
            cols = [ref_solve(G, [e[i] for e in E])
                    for i in range(X.ambient_dim)]  # columns of G^-1 E
            d = lcm(*(x.denominator for col in cols for x in col))
            assert loc.d == d
            assert loc.rows == [tuple((i, col[r] * d)
                                      for i, col in enumerate(cols) if col[r])
                                for r in range(len(E))]


def test_point_simplex_dist2_matches_reference():
    rng = random.Random(62)
    degenerate = 0
    for _ in range(300):
        n, k = rng.randrange(1, 4), rng.randrange(0, 4)
        verts = tuple(tuple(F(rng.randrange(-4, 5), rng.randrange(1, 3))
                            for _ in range(n)) for _ in range(k + 1))
        if k and rng.randrange(3) == 0:
            # one more vertex, anywhere in the list, on the line through
            # the first two, repeating one of them when t is 0 or 1
            t = F(rng.randrange(-3, 7), 3)
            q = tuple(a + t * (b - a) for a, b in zip(verts[0], verts[1]))
            i = rng.randrange(k + 2)
            verts = verts[:i] + (q,) + verts[i:]
        p = tuple(F(rng.randrange(-6, 7), rng.randrange(1, 4))
                  for _ in range(n))
        assert point_simplex_dist2(p, verts) == ref_dist2(p, verts)
        degenerate += is_degenerate(verts)
    assert degenerate > 50


def test_is_degenerate_agrees_with_the_gram_determinant():
    """The integer rank test gives the verdict of gram_det == 0 on seeded
    tuples of 1 to 5 vertices in R^1 to R^5: free ones, ones with a vertex
    replaced by an affine combination of the others, and ones with a
    vertex repeated."""
    rng = random.Random(71)
    kinds = {"free": 0, "dependent": 0, "coincident": 0}
    degenerate = 0
    for _ in range(3000):
        n, k = rng.randrange(1, 6), rng.randrange(0, 5)
        verts = [tuple(F(rng.randrange(-4, 5), rng.randrange(1, 4))
                       for _ in range(n)) for _ in range(k + 1)]
        kind = rng.choice(list(kinds)) if k else "free"
        if kind == "dependent":
            # the last vertex becomes sum w_i v_i over the others, with
            # weights summing to 1
            ws = [F(rng.randrange(-3, 4), rng.randrange(1, 3))
                  for _ in range(k - 1)]
            ws.append(1 - sum(ws, F(0)))
            verts[-1] = tuple(sum(w * v[d] for w, v in zip(ws, verts))
                              for d in range(n))
            rng.shuffle(verts)
        elif kind == "coincident":
            i, j = rng.sample(range(k + 1), 2)
            verts[i] = verts[j]
        kinds[kind] += 1
        verts = tuple(verts)
        assert is_degenerate(verts) == (gram_det(verts) == 0), verts
        assert kind == "free" or is_degenerate(verts)
        degenerate += is_degenerate(verts)
    assert min(kinds.values()) > 500, kinds
    assert 1200 < degenerate < 2000, degenerate


def test_segment_orientation_matches_the_stable_sort():
    """A two-point tuple is oriented as the stable sort of the general rule
    orients it: the same points, the same objects and the same sign, also
    for equal points and for plain-Fraction twins of interned ones."""
    rng = random.Random(55)
    pool = [coord(F(n, d)) for n in range(-3, 4) for d in (1, 2)]
    for _ in range(400):
        dim = rng.randrange(1, 4)
        p = tuple(rng.choice(pool) for _ in range(dim))
        q = p if rng.randrange(4) == 0 else \
            tuple(rng.choice(pool) for _ in range(dim))
        if rng.randrange(3) == 0:  # equal values, other objects
            q = tuple(F(x) for x in q)
        for tup in ((p, q), (q, p)):
            order = sorted(range(2), key=lambda i: (tup[i], i))
            key, sign = canonical_orientation(tup)
            assert type(key) is tuple
            assert all(a is tup[i] for a, i in zip(key, order))
            assert sign == (1 if order == [0, 1] else -1)


def test_det_fraction_matches_the_cofactor_expansion():
    """det_fraction gives the cofactor expansion's determinant on seeded
    square Fraction matrices of sizes 1 to 5: free ones, ones with a row
    replaced by a combination of the others, and ones with a zero column.
    The empty matrix has determinant 1."""
    rng = random.Random(72)
    kinds = {"free": 0, "dependent": 0, "zero column": 0}
    singular = 0
    for _ in range(600):
        n = rng.randrange(1, 6)
        M = [[F(rng.randrange(-5, 6), rng.randrange(1, 5)) for _ in range(n)]
             for _ in range(n)]
        kind = rng.choice(list(kinds)) if n > 1 else "free"
        if kind == "dependent":
            ws = [F(rng.randrange(-3, 4), rng.randrange(1, 3))
                  for _ in range(n - 1)]
            M[-1] = [sum(w * row[j] for w, row in zip(ws, M))
                     for j in range(n)]
            rng.shuffle(M)
        elif kind == "zero column":
            j = rng.randrange(n)
            for row in M:
                row[j] = F(0)
        kinds[kind] += 1
        d = det_fraction(M)
        assert type(d) is F and d == ref_det(M), M
        assert kind == "free" or d == 0
        singular += d == 0
    assert min(kinds.values()) > 100, kinds
    assert 250 < singular < 450, singular
    assert det_fraction([]) == 1
