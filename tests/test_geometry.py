import random
from fractions import Fraction

from mhom.geometry import cut_simplex_by_values, det_fraction, edge_matrix
from mhom.rational import dot

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
