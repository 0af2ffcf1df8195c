"""Seeded benchmark inputs, built with this directory's own code.

Nothing here imports mhom: loops are lists of weighted point tuples and
complexes are vertex coordinates plus simplex index tuples, so a change to
the package's own space builders or cycle generators never changes what
the benchmark feeds it.  The same seed always gives the same inputs.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

# The triangle circle of the bundled `s1`; the bundled `torus` is the
# product of two copies, first factor in coordinates 0..2.
RING = ((Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)))
RING_EDGES = ((0, 1), (1, 2), (0, 2))  # stored (ascending) edge orientation

# One torus pass loops once around each factor at a fixed level on each
# edge of the other factor.  The level sets the cost (1 to 4.5 s per loop,
# cheapest near a vertex), so it is fixed rather than seeded: a seeded
# level alone moved the median loop time by 10% between seeds.  The seed
# orders the loops and picks where each one starts.
TORUS_LEVELS = {(0, 0): Fraction(1, 7), (0, 1): Fraction(2, 7),
                (0, 2): Fraction(3, 7), (1, 0): Fraction(4, 7),
                (1, 1): Fraction(5, 7), (1, 2): Fraction(6, 7)}

# Circle loops are drawn as `mhom compare --space s1` draws them: on each
# edge, one cut k/d with d from CUTS_COARSE and one with d from CUTS_FINE.
# A loop with a piece that lies in no ball of the three-arc cover costs
# about three times more, so a seeded count of such loops would move the
# median between seeds.  One pass therefore holds CIRCLE_MIX[k] loops with
# k split pieces: the exact shares of `split_shares` (46.4%, 40.6%, 11.9%,
# 1.2%) over a pass of 120, rounded by largest remainder.
CUTS_COARSE = (3, 4, 5, 7)
CUTS_FINE = (5, 6, 8, 9)
CIRCLE_MIX = {0: 56, 1: 49, 2: 14, 3: 1}

# (kind, sizes): the complexes of one homology pass.  Sizes and labels are
# fixed, because SNF cost depends on the vertex order; the seed moves the
# coordinates and the query cycles.
COMPLEXES = (
    ("polygons", (4, 5)),
    ("polygon-wedge", (5, (3, 4))),
    ("klein", (5,)),
    ("polygons", (5, 6)),
    ("polygon-wedge", (4, (3, 3, 4))),
    ("klein", (6,)),
    ("polygons", (6, 6)),
)
CYCLES_PER_DEGREE = 3


def lerp(a, b, t):
    return tuple(x + t * (y - x) for x, y in zip(a, b))


# ---- degree-one loops ----

def torus_loop(factor, edge, s, start=0):
    """Loop once around torus factor `factor` (0 or 1), the other factor
    frozen at parameter s along stored edge `edge` of its circle, starting
    at ring vertex `start`.

    Each segment is split where it crosses the staircase diagonal of its
    square, so every piece lies in one triangle of the carrier.  Returns
    (weighted segment tuples, expected windings about both factors).
    """
    c, d = RING_EDGES[edge]
    level = lerp(RING[c], RING[d], s)
    items = []
    for i in range(start, start + 3):
        u, v = i % 3, (i + 1) % 3
        # the diagonal of square (a,b)x(c,d) runs from (a,c) to (b,d), so
        # the loop meets it where its parameter from a equals s
        cross = s if u < v else 1 - s
        p, q = RING[u], RING[v]
        m = lerp(p, q, cross)
        for x, y in ((p, m), (m, q)):
            if factor == 0:
                items.append((1, (x + level, y + level)))
            else:
                items.append((1, (level + x, level + y)))
    winding = (1, 0) if factor == 0 else (0, 1)
    return items, winding


def torus_loops(seed):
    """One pass: both factors at their fixed levels, in seeded order."""
    rng = random.Random(seed)
    loops = [torus_loop(f, e, s, start=rng.randrange(3))
             for (f, e), s in sorted(TORUS_LEVELS.items())]
    rng.shuffle(loops)
    return loops


def circle_loop(cuts):
    """Loop once around the triangle circle, broken at the given interior
    parameters of each edge (cuts[i] for edge i -> i+1)."""
    items = []
    for i in range(3):
        a, b = RING[i], RING[(i + 1) % 3]
        stops = [Fraction(0)] + sorted(cuts[i]) + [Fraction(1)]
        for s, t in zip(stops, stops[1:]):
            items.append((1, (lerp(a, b, s), lerp(a, b, t))))
    return items, (1,)


def _fits_one_ball(s, t):
    """Does the piece [s, t] of an edge lie in the open unit ball about
    one of its ends?  Edges of the triangle circle have length sqrt(2)."""
    return 2 * t * t < 1 or 2 * (1 - s) * (1 - s) < 1


def edge_split(cuts):
    """Does one piece of an edge cut at `cuts` fit no three-arc ball?"""
    stops = [Fraction(0)] + sorted(cuts) + [Fraction(1)]
    return any(not _fits_one_ball(s, t) for s, t in zip(stops, stops[1:]))


def split_pieces(cuts):
    """Number of loop pieces that fit no single three-arc ball (at most
    one per edge, since such a piece covers the edge's middle)."""
    return sum(1 for cs in cuts if edge_split(cs))


def edge_cuts(rng):
    """The cuts of one edge, drawn as `mhom compare` draws them."""
    dens = (rng.choice(CUTS_COARSE), rng.choice(CUTS_FINE))
    return sorted({Fraction(rng.randrange(1, d), d) for d in dens})


def split_shares():
    """Exact share of loops with k split pieces, k = 0..3, under
    `edge_cuts`: the three edges split independently."""
    q = sum(Fraction(1, len(CUTS_COARSE) * (d1 - 1) * len(CUTS_FINE) * (d2 - 1))
            for d1 in CUTS_COARSE for d2 in CUTS_FINE
            for a in range(1, d1) for b in range(1, d2)
            if edge_split({Fraction(a, d1), Fraction(b, d2)}))
    return [comb(3, k) * q ** k * (1 - q) ** (3 - k) for k in range(4)]


def circle_loops(seed):
    """One pass: CIRCLE_MIX[k] loops with k split pieces, each drawn from
    the `mhom compare` distribution restricted to that count, shuffled."""
    rng = random.Random(seed)
    want = dict(CIRCLE_MIX)
    loops = []
    while any(want.values()):
        cuts = [edge_cuts(rng) for _ in range(3)]
        kind = split_pieces(cuts)
        if want[kind]:
            want[kind] -= 1
            loops.append(circle_loop(cuts))
    rng.shuffle(loops)
    return loops


# ---- complexes for the homology workload ----

class Complex:
    """Vertex coordinates, simplices closed under faces, expected groups.

    `groups[k]` is (betti, torsion tuple) for H_k.
    """

    def __init__(self, name, vertices, tops, groups):
        self.name = name
        self.vertices = vertices
        self.ambient_dim = len(vertices[0])
        faces = set()
        for t in tops:
            t = tuple(sorted(t))
            for k in range(1, len(t) + 1):
                faces.update(combinations(t, k))
        self.simplices = sorted(faces, key=lambda t: (len(t), t))
        self.groups = groups

    def basis(self, k):
        """Degree-k simplices in ascending order: the usual chain basis."""
        return [t for t in self.simplices if len(t) == k + 1]


def _distinct_params(rng, count):
    return sorted(rng.sample(range(1, 4 * count + 8), count))


def _graph(rng, cycles):
    """A wedge of circles of the given lengths, all sharing vertex 0, on
    the parabola (t, t^2).  A single cycle is a polygon.  Returns
    (points, edges, first Betti number)."""
    count = 1 + sum(n - 1 for n in cycles)
    pts = [(Fraction(t), Fraction(t * t)) for t in _distinct_params(rng, count)]
    edges, nxt = [], 1
    for n in cycles:
        ring = [0] + list(range(nxt, nxt + n - 1))
        nxt += n - 1
        edges.extend(tuple(sorted((ring[i], ring[(i + 1) % n])))
                     for i in range(n))
    return pts, edges, len(cycles)


def graph_product(rng, cycles1, cycles2):
    """Staircase-triangulated product of two wedges of circles."""
    p1, e1, b1 = _graph(rng, cycles1)
    p2, e2, b2 = _graph(rng, cycles2)
    index = {(i, j): i * len(p2) + j
             for i in range(len(p1)) for j in range(len(p2))}
    verts = [a + b for a in p1 for b in p2]
    tops = []
    for a, b in e1:
        for c, d in e2:
            tops.append((index[a, c], index[b, c], index[b, d]))
            tops.append((index[a, c], index[a, d], index[b, d]))
    groups = [(1, ()), (b1 + b2, ()), (b1 * b2, ())]
    return verts, tops, groups


def klein_grid(rng, n):
    """n x n staircase grid with (i, j + n) ~ (i, j) and
    (i + n, j) ~ (0, -j): a Klein bottle, vertices on the moment curve
    in R^5 so that no simplex degenerates."""
    def vid(i, j):
        if i == n:
            i, j = 0, -j
        return i * n + (j % n)

    params = _distinct_params(rng, n * n)
    verts = [tuple(Fraction(t) ** e for e in range(1, 6)) for t in params]
    tops = []
    for i in range(n):
        for j in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tops.append((v00, v10, v11))
            tops.append((v00, v01, v11))
    groups = [(1, ()), (1, (2,)), (0, ())]
    return verts, tops, groups


def homology_complexes(seed):
    """The complexes of one pass, in the fixed order of COMPLEXES."""
    rng = random.Random(seed)
    out = []
    for kind, sizes in COMPLEXES:
        if kind == "polygons":
            n, m = sizes
            verts, tops, groups = graph_product(rng, (n,), (m,))
            name = f"{n}-gon x {m}-gon"
        elif kind == "polygon-wedge":
            n, wedge = sizes
            verts, tops, groups = graph_product(rng, (n,), wedge)
            name = f"{n}-gon x wedge{list(wedge)}"
        else:
            (n,) = sizes
            verts, tops, groups = klein_grid(rng, n)
            name = f"klein {n}x{n}"
        out.append(Complex(name, verts, tops, groups))
    return out


def class_queries(seed, cx):
    """Per degree, CYCLES_PER_DEGREE pairs (a, b): class coefficients a on
    the generators (free first, then torsion) and a sparse chain b one
    degree up, whose boundary is added to the cycle."""
    rng = random.Random(f"{seed}:{cx.name}")
    out = {}
    for k, (betti, torsion) in enumerate(cx.groups):
        up = cx.basis(k + 1)
        qs = []
        for _ in range(CYCLES_PER_DEGREE):
            a = [rng.randint(-3, 3) for _ in range(betti + len(torsion))]
            b = [0] * len(up)
            for i in rng.sample(range(len(up)), min(4, len(up))):
                b[i] = rng.choice((-2, -1, 1, 2))
            qs.append((a, b))
        out[k] = qs
    return out
