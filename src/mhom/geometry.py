"""Exact affine-simplex utilities shared by chains and currents.

Simplices are ordered tuples of points, and a point is a tuple of
Fractions.  Centroids are interned Points (rational.point), as every
point the algebra builds is; cut points stay plain tuples of Fractions
until a caller that keeps them interns them.
Everything here is combinatorial or solved over Q; orientation travels
with vertex order and permutation parity.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .rational import centroid, dist2, dot, frac, lerp, vsub

Simplex = tuple  # tuple of points


def rref(rows):
    """Reduced row echelon form over Q; returns the nonzero rows."""
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        # the pivot row is zero left of column c, so row operations
        # start there
        f = rows[r][c]
        rows[r][c:] = [x / f for x in rows[r][c:]]
        for i in range(m):
            if i != r and rows[i][c]:
                g = rows[i][c]
                rows[i][c:] = [x - g * y
                               for x, y in zip(rows[i][c:], rows[r][c:])]
        r += 1
        if r == m:
            break
    return [tuple(row) for row in rows[:r] if any(row)]


def solve_fraction_system(A, b):
    """Solve A x = b over Q; returns None when inconsistent.

    A: list of rows; free variables are set to zero.  A pivot of the
    reduced [A | b] in the last column means no solution; otherwise each
    pivot row gives its pivot variable.
    """
    n = len(A[0]) if A else 0
    x = [Fraction(0)] * n
    M = [[frac(v) for v in row] + [frac(bv)] for row, bv in zip(A, b)]
    for row in rref(M):
        c = next(j for j, v in enumerate(row) if v)
        if c == n:
            return None
        x[c] = row[n]
    return x


def barycentric_coords(p, verts):
    """Barycentric coordinates of p in the simplex, or None if p is
    outside the affine hull.  Coordinates may be negative."""
    n = len(p)
    k1 = len(verts)
    A = [[verts[j][i] for j in range(k1)] for i in range(n)]
    A.append([Fraction(1)] * k1)
    b = list(p) + [Fraction(1)]
    return solve_fraction_system(A, b)


def point_in_simplex(p, verts) -> bool:
    lam = barycentric_coords(p, verts)
    return lam is not None and all(x >= 0 for x in lam)


def edge_matrix(verts):
    return [vsub(v, verts[0]) for v in verts[1:]]


def gram_matrix(verts):
    E = edge_matrix(verts)
    return [[dot(a, b) for b in E] for a in E]


def _eliminate(E):
    """Fraction-free (Bareiss) elimination of the integer rows E, in place.

    Returns (rank, pivot): the rank, and the last pivot with the sign of
    the row swaps, which for a square E of full rank is its determinant.
    Each new entry is a 2x2 cross product over the previous pivot, a
    division that is exact, so entries stay minors of E and no Fraction is
    made.
    """
    k = len(E)
    prev, sign, r = 1, 1, 0
    for c in range(len(E[0]) if k else 0):
        if r == k:
            break
        piv = next((i for i in range(r, k) if E[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            E[r], E[piv] = E[piv], E[r]
            sign = -sign
        top = E[r]
        p = top[c]
        for i in range(r + 1, k):
            row = E[i]
            f = row[c]
            E[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        r += 1
    return r, sign * prev


def det_fraction(M) -> Fraction:
    """Determinant of a square matrix of rationals: each row scaled to
    integers by the lcm of its denominators, then _eliminate."""
    rows, scale = [], 1
    for row in M:
        row = [frac(x) for x in row]
        q = lcm(*[x.denominator for x in row])
        rows.append([x.numerator * (q // x.denominator) for x in row])
        scale *= q
    rank, det = _eliminate(rows)
    return Fraction(det, scale) if rank == len(rows) else Fraction(0)


def gram_det(verts) -> Fraction:
    return det_fraction(gram_matrix(verts))


def is_degenerate(verts) -> bool:
    """Affinely dependent vertex tuple (repeats included): the edge vectors
    v_i - v_0, scaled to integers over one common denominator of the
    vertices, have rank below their count (_eliminate)."""
    q = lcm(*[x._denominator for v in verts for x in v])
    rows = [[x._numerator * (q // x._denominator) for x in v] for v in verts]
    v0 = rows[0]
    E = [[a - b for a, b in zip(row, v0)] for row in rows[1:]]
    return _eliminate(E)[0] < len(E)


def simplex_boundary_terms(tup: Simplex):
    """Alternating facet tuples: sum_i (-1)^i (drop vertex i)."""
    out = []
    for i in range(len(tup)):
        out.append((1 if i % 2 == 0 else -1, tup[:i] + tup[i + 1:]))
    return out


def barycentric_subdivide(tup: Simplex):
    """Terms of the barycentric subdivision, cone-on-boundary recursion.

    Returns [(sign, tuple)].  The pieces partition the simplex and the
    operation commutes with the alternating boundary.
    """
    if len(tup) == 1:
        return [(1, tup)]
    b = centroid(tup)
    out = []
    for s, face in simplex_boundary_terms(tup):
        for s2, sub in barycentric_subdivide(face):
            out.append((s * s2, (b,) + sub))
    return out


def staircase_prism(bottom, top):
    """Prism terms sum_i (-1)^i [v_0..v_i, w_i..w_k].

    Purely combinatorial: together with the alternating boundary this
    satisfies  b P + P b = [top] - [bottom]  exactly, for any vertex data.
    """
    k = len(bottom) - 1
    out = []
    for i in range(k + 1):
        tup = bottom[:i + 1] + top[i:]
        out.append((1 if i % 2 == 0 else -1, tup))
    return out


def canonical_orientation(tup: Simplex):
    """(sorted tuple, parity sign) under stable lexicographic vertex sort."""
    if len(tup) == 2:  # a segment: the stable sort swaps only q < p
        p, q = tup
        return ((q, p), -1) if q < p else (tup, 1)
    order = sorted(range(len(tup)), key=lambda i: (tup[i], i))
    # count inversions of the permutation for parity
    inv = 0
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if order[a] > order[b]:
                inv += 1
    return tuple(tup[i] for i in order), (1 if inv % 2 == 0 else -1)


def cut_simplex_by_values(tup: Simplex, vals, r):
    """Split a simplex along the affine level set {g = r}.

    vals are the g-values at the vertices (g affine on the simplex).
    Returns (low, high): lists of vertex tuples partitioning the simplex,
    low on g <= r, high on g >= r.  Orientation of every fragment matches
    the parent.  Vertices with value exactly r sit on the cut and are fine;
    the recursion splits crossing edges at exact rational points.  Each
    split replaces one end of an edge by a point strictly inside it, which
    scales the volume by a factor in (0, 1): so no fragment of a
    non-degenerate simplex is degenerate, and the fragments' volumes add
    up to the parent's.
    """
    vals = list(vals)
    cross = None
    for i in range(len(tup)):
        for j in range(len(tup)):
            if vals[i] < r < vals[j]:
                cross = (i, j)
                break
        if cross:
            break
    if cross is None:
        if all(v <= r for v in vals):
            return [tup], []
        return [], [tup]
    i, j = cross
    t = (r - vals[i]) / (vals[j] - vals[i])
    q = lerp(tup[i], tup[j], t)
    tup_a = tup[:j] + (q,) + tup[j + 1:]
    vals_a = vals[:j] + [r] + vals[j + 1:]
    tup_b = tup[:i] + (q,) + tup[i + 1:]
    vals_b = vals[:i] + [r] + vals[i + 1:]
    low_a, high_a = cut_simplex_by_values(tup_a, vals_a, r)
    low_b, high_b = cut_simplex_by_values(tup_b, vals_b, r)
    return low_a + low_b, high_a + high_b


def point_simplex_dist2(p, verts) -> Fraction:
    """Exact squared Euclidean distance from p to the simplex."""
    if len(verts) == 1:
        return dist2(p, verts[0])
    E = edge_matrix(verts)
    G = [[dot(a, b) for b in E] for a in E]
    # G = E E^T and E have one range, so G lam = E (p - v0) is solvable,
    # and any solution puts the projection of p on the hull at v0 + lam E
    lam = solve_fraction_system(G, [dot(e, vsub(p, verts[0])) for e in E])
    if sum(lam) <= 1 and all(x >= 0 for x in lam):
        proj = list(verts[0])
        for c, e in zip(lam, E):
            proj = [a + c * b for a, b in zip(proj, e)]
        return dist2(p, tuple(proj))
    # else a nearest point lies on a facet: outside the simplex, or inside
    # it when the vertices are affinely dependent, since the facets then
    # cover the simplex (Caratheodory)
    best = None
    for i in range(len(verts)):
        d = point_simplex_dist2(p, verts[:i] + verts[i + 1:])
        if best is None or d < best:
            best = d
    return best


def integrate_affine(tup: Simplex, vertex_values) -> Fraction:
    """Integral over the simplex of the affine function with the given
    vertex values, with respect to the parametrization by the standard
    simplex (volume 1/k! in parameter space)."""
    mean = sum(vertex_values, Fraction(0)) / len(vertex_values)
    return mean / factorial(len(tup) - 1)
