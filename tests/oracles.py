"""Independent reference computations for cross-checking test values.

Everything here is deliberately naive and self-contained: minor
enumeration instead of elimination for invariant factors, dense Gaussian
elimination over Q and over prime fields for ranks.  Slow but obviously
correct on the small inputs the tests use.
"""

from bisect import insort
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

from mhom.cech import MAX_FILL_DEPTH, SAMPLE_DEPTH
from mhom.chains import LipschitzChain
from mhom.errors import GeometryError, InputError, LocalityError
from mhom.geometry import cut_simplex_by_values, gram_det, integrate_affine
from mhom.rational import RadicalSum, dist2, dot, frac, vsub


def square_split(n):
    """(s, m) with n = s*s*m and m squarefree, n >= 1, by trial division of
    n by every d up to its square root."""
    s, m, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        if n % d == 0:
            n //= d
            m *= d
        d += 1
    return s, m * n


def minor_gcds(rows):
    """d_k = gcd of all k x k minors, for k = 1..rank bound."""
    n = len(rows)
    m = len(rows[0]) if n else 0
    out = []
    for k in range(1, min(n, m) + 1):
        g = 0
        for ri in combinations(range(n), k):
            for ci in combinations(range(m), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, det(sub))
        out.append(abs(g))
        if out[-1] == 0:
            break
    return out


def det(sq):
    n = len(sq)
    if n == 1:
        return sq[0][0]
    total = 0
    for j in range(n):
        if sq[0][j]:
            sub = [row[:j] + row[j + 1:] for row in sq[1:]]
            term = sq[0][j] * det(sub)
            total += term if j % 2 == 0 else -term
    return total


def invariant_factors(rows):
    """Nontrivial diagonal of the integer normal form, from minor gcds."""
    ds = minor_gcds(rows)
    out = []
    prev = 1
    for d in ds:
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


def field_rank(rows, p=None):
    """Rank by Gaussian elimination over Q (p None) or over GF(p)."""
    return len(echelon_rows(rows, p))


def echelon_rows(rows, p=None):
    """Nonzero rows of the reduced row echelon form over Q or GF(p)."""
    if p is None:
        mat = [[Fraction(x) for x in row] for row in rows]
    else:
        mat = [[x % p for x in row] for row in rows]
    n = len(mat)
    m = len(mat[0]) if n else 0
    rank = 0
    col = 0
    while rank < n and col < m:
        piv = next((i for i in range(rank, n) if mat[i][col]), None)
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        if p is None:
            inv = 1 / mat[rank][col]
            mat[rank] = [x * inv for x in mat[rank]]
        else:
            inv = pow(mat[rank][col], p - 2, p)
            mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(n):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                if p is None:
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
                else:
                    mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return [tuple(row) for row in mat[:rank]]


# a standalone Gauss-Jordan solve, the reference for geometry.rref and
# everything that solves through it
def solve_fraction_system(A, b):
    """Solve A x = b over Q; returns None when inconsistent.

    A: list of rows; free variables are set to zero.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    M = [[frac(x) for x in row] + [frac(bv)] for row, bv in zip(A, b)]
    piv_cols = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if M[i][c]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(m):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if M[i][n]:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        x[c] = M[i][n]
    return x


def point_simplex_dist2(p, verts):
    """Squared distance from p to the simplex: to the projection of p on
    the affine hull when the edges are independent and the projection
    lies in the simplex, else the least distance to a facet."""
    if len(verts) == 1:
        return dist2(p, verts[0])
    E = [vsub(v, verts[0]) for v in verts[1:]]
    G = [[dot(a, b) for b in E] for a in E]
    lam = solve_fraction_system(G, [dot(e, vsub(p, verts[0])) for e in E])
    if lam is not None and det(G) != 0 and min(lam) >= 0 and sum(lam) <= 1:
        proj = verts[0]
        for c, e in zip(lam, E):
            proj = tuple(a + c * b for a, b in zip(proj, e))
        return dist2(p, proj)
    return min(point_simplex_dist2(p, verts[:i] + verts[i + 1:])
               for i in range(len(verts)))


def simplicial_boundary_rows(faces, cells):
    """Boundary matrix rows of the map from `cells` to `faces`.

    Both arguments are lists of sorted vertex tuples; entry (i, j) is the
    signed incidence of faces[i] in cells[j].
    """
    index = {f: i for i, f in enumerate(faces)}
    rows = [[0] * len(cells) for _ in faces]
    for j, cell in enumerate(cells):
        for k in range(len(cell)):
            face = cell[:k] + cell[k + 1:]
            sign = 1 if k % 2 == 0 else -1
            rows[index[face]][j] += sign
    return rows


def betti_numbers(simplices_by_dim, p=None):
    """Betti numbers over Q or GF(p) from scratch.

    simplices_by_dim: dict k -> sorted list of sorted vertex tuples.
    """
    top = max(simplices_by_dim)
    out = []
    for k in range(top + 1):
        cells = simplices_by_dim.get(k, [])
        nk = len(cells)
        if k == 0:
            rk = 0
        else:
            rows = simplicial_boundary_rows(simplices_by_dim[k - 1], cells)
            rk = field_rank(rows, p) if cells else 0
        above = simplices_by_dim.get(k + 1, [])
        if above:
            rows = simplicial_boundary_rows(cells, above)
            rk1 = field_rank(rows, p)
        else:
            rk1 = 0
        out.append(nk - rk - rk1)
    return out


def _gram_chart(tup):
    """Flat key and chart of a simplex's affine flat, by Gram solves.

    The key pairs the flat's reduced echelon basis R with its point nearest
    the origin, and a flat point's chart coordinates are its coefficients
    in R from that point, each found by solving the Gram system of R.
    """
    from mhom.geometry import edge_matrix

    R = echelon_rows(edge_matrix(tup))
    G = [[dot(a, b) for b in R] for a in R]
    lam = solve_fraction_system(G, [dot(r, tup[0]) for r in R])
    anchor = tup[0]
    for c, r in zip(lam, R):
        anchor = tuple(u - c * v for u, v in zip(anchor, r))

    def to_chart(p):
        return tuple(solve_fraction_system(
            G, [dot(r, vsub(p, anchor)) for r in R]))

    def from_chart(x):
        p = anchor
        for c, r in zip(x, R):
            p = tuple(u + c * v for u, v in zip(p, r))
        return p

    return (anchor, tuple(R)), (to_chart, from_chart)


def _nullspace_hyperplanes(chart_tup):
    """(primitive normal, offset) of each facet hyperplane of a chart
    k-simplex, the normal read off the null space of the facet's echelon
    edge matrix; degenerate facets span no hyperplane and are skipped."""
    from mhom.geometry import edge_matrix

    k = len(chart_tup) - 1
    out = []
    for i in range(k + 1):
        facet = chart_tup[:i] + chart_tup[i + 1:]
        rows = echelon_rows(edge_matrix(facet))
        if len(rows) != k - 1:
            continue
        pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
        free = next(j for j in range(k) if j not in pivots)
        n = [Fraction(0)] * k
        n[free] = Fraction(1)
        for row, pj in zip(rows, pivots):
            n[pj] = -row[free]
        den = 1
        for x in n:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in n]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if next(v for v in ints if v) < 0:
            g = -g
        n = tuple(Fraction(v // g) for v in ints)
        out.append((n, dot(n, facet[0])))
    return out


def reduce_at_witness_points(current):
    """Canonical form of a polyhedral current, multiplicities at witnesses.

    The same arrangement as PolyhedralCurrent.reduce (every piece of a flat
    cut by every facet hyperplane of the flat's pieces), reached by other
    means: each flat gets a Gram chart anchored nearest the origin and
    null-space facet normals, degenerate fragments are dropped after each
    cut, and fragments are grouped by centroid sign vector.  Each region's
    multiplicity is the sum of w * orientation over the pieces whose closed
    simplex holds the centroid of the region's first fragment, tested by
    solving for its barycentric coordinates.  Returns the terms dict.
    """
    from mhom.geometry import (canonical_orientation, cut_simplex_by_values,
                               det_fraction, edge_matrix, gram_det)
    from mhom.rational import centroid

    def holds(x, ctup):
        E = edge_matrix(ctup)
        k = len(x)
        lam = solve_fraction_system(
            [[E[j][i] for j in range(k)] for i in range(k)],
            list(vsub(x, ctup[0])))
        return lam is not None and min(lam) >= 0 and sum(lam) <= 1

    k = current.degree
    merged = {}
    for tup, w in current.terms.items():
        if k > 0 and gram_det(tup) == 0:
            continue
        key, sign = canonical_orientation(tup)
        merged[key] = merged.get(key, 0) + sign * w
    merged = {t: w for t, w in merged.items() if w}
    if k == 0:
        return merged
    groups = {}
    for tup, w in sorted(merged.items()):
        fkey, chart = _gram_chart(tup)
        groups.setdefault(fkey, (chart, []))[1].append((tup, w))
    out = {}
    for fkey in sorted(groups):
        (to_chart, from_chart), members = groups[fkey]
        cpieces = []
        for tup, w in members:
            ctup = tuple(to_chart(p) for p in tup)
            d = det_fraction(edge_matrix(ctup))
            if d:
                cpieces.append((ctup, w, 1 if d > 0 else -1))
        hyps = sorted({h for ctup, _, _ in cpieces
                       for h in _nullspace_hyperplanes(ctup)})
        regions = {}
        for idx, (ctup, _, _) in enumerate(cpieces):
            frags = [ctup]
            for n, c in hyps:
                frags = [f for g in frags
                         for half in cut_simplex_by_values(
                             g, [dot(n, p) for p in g], c)
                         for f in half
                         if det_fraction(edge_matrix(f)) != 0]
            for f in frags:
                cen = centroid(f)
                sig = tuple(1 if dot(n, cen) > c else -1 for n, c in hyps)
                regions.setdefault(sig, []).append((idx, f))
        for sig in sorted(regions):
            entries = regions[sig]
            witness = centroid(entries[0][1])
            mult = sum(w * s for ctup, w, s in cpieces if holds(witness, ctup))
            if mult == 0:
                continue
            first = min(i for i, _ in entries)
            for i, f in entries:
                if i != first:
                    continue
                d = det_fraction(edge_matrix(f))
                fpos = f if d > 0 else (f[1], f[0]) + f[2:]
                key, sign = canonical_orientation(
                    tuple(from_chart(p) for p in fpos))
                out[key] = out.get(key, 0) + sign * mult
    return {t: w for t, w in out.items() if w}


# A separately written Smith normal form on dense row lists, kept as the
# reference for mhom.intlinalg: both run the same operations in the same
# order, so all five returned matrices must agree.  This copy holds U_inv
# and V as rows of their transposes, so every mirrored operation is a row
# operation; intlinalg holds all four transforms as they are.

def _nonzero_in_block(rows, t, nr, nc):
    best = None
    for i in range(t, nr):
        ri = rows[i]
        for j in range(t, nc):
            v = ri[j]
            if v:
                if best is None or abs(v) < abs(best[2]):
                    best = (i, j, v)
                    if abs(v) == 1:
                        return best
    return best


def _add_row(rows, i, k, c):
    """rows[i] += c * rows[k] on dense row lists."""
    rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]


def dense_smith_normal_form(M):
    """Returns (U, D, V, U_inv, V_inv) with U*M*V = D, U and V unimodular.

    D is diagonal with nonnegative entries d_1 | d_2 | ... | d_r.
    Row operations accumulate in U, column operations in V, and each
    inverse takes the inverse operation from the other side: a row
    operation on U acts on U_inv as the inverse column operation, a column
    operation on V acts on V_inv as the inverse row operation.
    """
    from mhom.intlinalg import IntMatrix

    nr, nc = M.nrows, M.ncols
    A = M.to_rows()
    # U and V_inv are held as rows, U_inv and V as rows of their
    # transposes, so every mirrored operation is a row operation
    U, U_inv_t, V_t, V_inv = (IntMatrix.identity(n).to_rows()
                              for n in (nr, nr, nc, nc))

    def row_swap(i, k):
        for R in (A, U, U_inv_t):
            R[i], R[k] = R[k], R[i]

    def row_add(i, k, c):
        # row i += c * row k; column k of U_inv -= c * column i
        _add_row(A, i, k, c)
        _add_row(U, i, k, c)
        _add_row(U_inv_t, k, i, -c)

    def row_negate(i):
        for R in (A, U, U_inv_t):
            R[i] = [-x for x in R[i]]

    def col_swap(j, k):
        for r in A:
            r[j], r[k] = r[k], r[j]
        for R in (V_t, V_inv):
            R[j], R[k] = R[k], R[j]

    def col_add(j, k, c):
        # col j += c * col k; row k of V_inv -= c * row j
        for r in A:
            if r[k]:
                r[j] += c * r[k]
        _add_row(V_t, j, k, c)
        _add_row(V_inv, k, j, -c)

    t = 0
    while True:
        piv = _nonzero_in_block(A, t, nr, nc)
        if piv is None:
            break
        i, j, _ = piv
        row_swap(t, i)
        col_swap(t, j)
        while True:
            # clear column t below the pivot
            done = True
            for i in range(t + 1, nr):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_add(i, t, -q)
                    if A[i][t]:  # remainder smaller than pivot: swap up
                        row_swap(t, i)
                        done = False
            for j in range(t + 1, nc):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_add(j, t, -q)
                    if A[t][j]:
                        col_swap(t, j)
                        done = False
            if done and all(A[i][t] == 0 for i in range(t + 1, nr)) \
                    and all(A[t][j] == 0 for j in range(t + 1, nc)):
                break
        if A[t][t] < 0:
            row_negate(t)
        t += 1

    rank = t
    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b % a != 0:
                changed = True
                # bring b into position via col add, then re-clear the 2x2 block
                col_add(i, i + 1, 1)
                while True:
                    q = A[i + 1][i] // A[i][i]
                    row_add(i + 1, i, -q)
                    if A[i + 1][i] == 0:
                        break
                    row_swap(i, i + 1)
                while True:
                    q = A[i][i + 1] // A[i][i]
                    col_add(i + 1, i, -q)
                    if A[i][i + 1] == 0:
                        break
                    col_swap(i, i + 1)
                if A[i][i] < 0:
                    row_negate(i)
                if A[i + 1][i + 1] < 0:
                    row_negate(i + 1)

    D = IntMatrix(nr, nc, {(i, i): A[i][i] for i in range(rank)})
    return (IntMatrix.from_rows(U), D, IntMatrix.from_rows(zip(*V_t)),
            IntMatrix.from_rows(zip(*U_inv_t)), IntMatrix.from_rows(V_inv))


# (complex, degree, level) -> refined canonical unit column per basis simplex
_UNIT_COLUMNS = {}


def chain_to_vector(chain):
    """Inverse of chain_from_vector up to refinement, or None.

    Succeeds when the chain is a combination of the complex's own
    degree-k simplices in the refinement limit.  Peels one refined unit
    column per basis simplex off the chain's refined canonical form; the
    columns depend only on the complex, degree and level and are kept.
    """
    basis = chain.complex.chain_basis()
    sims = basis[chain.degree] if chain.degree < len(basis) else []
    extra = max(2, chain.degree)
    level = chain.level + extra
    target = chain.subdivide(extra).canonical()
    key = (chain.complex, chain.degree, level)
    columns = _UNIT_COLUMNS.get(key)
    if columns is None:
        columns = []
        for s in sims:
            unit = LipschitzChain.from_simplices(
                chain.complex, [(1, chain.complex.points_of(s))])
            columns.append(unit.subdivide(level).canonical())
        _UNIT_COLUMNS[key] = columns
    coeffs = []
    residue = dict(target)
    for col in columns:
        # every basis simplex owns a private interior piece, so its
        # coefficient can be read off any term of its refinement
        probe = next(iter(col)) if col else None
        c = 0
        if probe is not None and probe in residue:
            c = residue[probe] // col[probe]
        coeffs.append(c)
        if c:
            for t, v in col.items():
                residue[t] = residue.get(t, 0) - c * v
                if residue[t] == 0:
                    del residue[t]
    if residue:
        return None
    return coeffs


# Integrals against the mass measure of a polyhedral current, and the
# continuity estimate of metric currents (Ambrosio-Kirchheim, Acta Math.
# 2000) that reads them, exact for piecewise-affine data.

def integrate_affine_product(tup, u_vals, v_vals):
    """Integral of a product of two affine functions over the standard
    parameter simplex: vol * (sum u_i v_i + (sum u_i)(sum v_i)) / ((k+1)(k+2))."""
    m = len(u_vals)
    s = sum((u * v for u, v in zip(u_vals, v_vals)), Fraction(0))
    s += sum(u_vals, Fraction(0)) * sum(v_vals, Fraction(0))
    return s / (factorial(len(tup) - 1) * m * (m + 1))


def integral_of_product(current, u, v, nonzero_of=None):
    """Exact integral of |u| * |v| against the mass measure of the current.

    u may be None for the constant 1.  When nonzero_of is given, the
    integration is restricted to the region where that scalar map is not
    identically zero (a difference of measure zero from {nonzero_of != 0}).
    Every map is evaluated afresh at the vertices of every fragment, where
    the cuts and the integrand read it.  Returns an exact radical sum.
    """
    cur = current.reduce()
    maps = [m for m in (u, v, nonzero_of) if m is not None]
    cur = cur.refine_until_affine(maps)
    total = RadicalSum()
    for tup, w in cur.terms.items():
        frags = [tup]
        for m in maps:
            nxt = []
            for f in frags:
                lo, hi = cut_simplex_by_values(
                    f, [m.scalar(p) for p in f], Fraction(0))
                nxt += lo + hi
            frags = nxt
        for f in frags:
            g = gram_det(f)
            if g == 0 or (nonzero_of is not None and
                          all(nonzero_of.scalar(p) == 0 for p in f)):
                continue
            vvals = [abs(v.scalar(p)) for p in f]
            if u is None:
                val = integrate_affine(f, vvals)
            else:
                val = integrate_affine_product(
                    f, [abs(u.scalar(p)) for p in f], vvals)
            total = total + RadicalSum.sqrt_of(g).scale(abs(w) * val)
    return total


def equicontinuity_gap(T, f, pis, pis2):
    """Exact right-minus-left gap of the continuity estimate.

    Compares |T(f, pis) - T(f, pis2)| against
    sum_i [ int |f| |pi_i - pi2_i| d||bd T|| + Lip(f) int_{f != 0}
    |pi_i - pi2_i| d||T|| ].  All entries must be scalar piecewise-affine
    maps; the comparison entries need Lipschitz constant at most 1, checked
    exactly.  Returns (lhs, rhs) as exact values; the
    estimate holds when lhs <= rhs.
    """
    pis = list(pis)
    pis2 = list(pis2)
    if len(pis) != T.degree or len(pis2) != T.degree:
        raise InputError("one-form entry count must match the degree")
    for m in pis + pis2:
        if m.scalar_lipschitz_squared() > 1:
            raise InputError("comparison entries must be 1-Lipschitz")

    lhs_q = T.evaluate(f, pis) - T.evaluate(f, pis2)
    lhs = RadicalSum.from_rational(abs(lhs_q))

    lipf = RadicalSum.sqrt_of(f.scalar_lipschitz_squared())
    bdT = T.boundary()
    rhs = RadicalSum()
    for pa, pb in zip(pis, pis2):
        diff = _difference_map(pa, pb)
        rhs = rhs + integral_of_product(bdT, f, diff)
        rhs = rhs + lipf * integral_of_product(T, None, diff, nonzero_of=f)
    return lhs, rhs


def _difference_map(pa, pb):
    """Scalar map p -> pa(p) - pb(p) with affine_on delegated to both."""

    class _Diff:
        target_dim = 1

        def scalar(self, p):
            return pa.scalar(p) - pb.scalar(p)

        def affine_on(self, pts):
            return pa.affine_on(pts) and pb.affine_on(pts)

    return _Diff()


# ---- reference fill and coreduction face lists ----

def full_traversal_fill(complex_, chain, region, start_depth=SAMPLE_DEPTH,
                        context=""):
    """The full-traversal form of cech.fill_zero_chain: the adjacency sets
    of the whole region are built up front, and every component is
    traversed before the weights are routed.  Same nodes and the same
    sorted traversal, so the same terms in the same order.

    region is None for the whole carrier, or a pair (cover, balls) for the
    intersection of the listed open balls of the cover; such a region is
    closed under segments inside single carrier simplices.  The nodes at
    each depth are the region's sample vertices in sample order, filtered
    by the cover's membership table of that depth (cover.members), then
    the chain points that are not among them, which the cover's per-point
    memo placed in the region (cover.balls_holding).  Builds a path graph
    on these nodes, routes each weighted point to its component root
    along a spanning tree, and retries one depth deeper, up to
    MAX_FILL_DEPTH, while some component carries nonzero total weight.
    """
    if chain.degree != 0:
        raise InputError("only zero-chains are filled by paths")
    cover, balls = region if region is not None else (None, ())
    balls = frozenset(balls)
    weights = {}
    for tup, c in chain.terms.items():
        p = tup[0]
        if cover is not None and not balls <= cover.balls_holding(p):
            raise GeometryError(f"chain point {p} escapes the region {context}")
        weights[p] = weights.get(p, 0) + c
    weights = {p: c for p, c in weights.items() if c}
    if not weights:
        return LipschitzChain(complex_, 1, {}, chain.level)

    last_err = "no admissible depth"
    for depth in range(start_depth, MAX_FILL_DEPTH + 1):
        nodes = complex_.sample_vertices(depth)
        if cover is not None:
            table = cover.members(depth).values()
            nodes = [v for v, inside in zip(nodes, table) if balls <= inside]
        known = set(nodes)
        # sample vertices come sorted, so each point that is not one of
        # them is inserted in place: nodes are numbered in point order, and
        # sorted numbers are sorted points
        order = nodes[:]
        for p in weights:
            if p not in known:
                insort(order, p)
                nodes.append(p)
        num = {v: k for k, v in enumerate(order)}
        # edge when two nodes share a containing top simplex; the segment
        # then stays inside the carrier, and inside the region by convexity
        by_top = {}
        for v in nodes:
            for j in complex_.tops_holding(v):
                by_top.setdefault(j, []).append(num[v])
        adj = [set() for _ in order]
        for home in by_top.values():
            for k in home:
                adj[k].update(home)
        node_weight = {num[p]: c for p, c in weights.items()}
        # one sorted traversal from the first node of each component records
        # its spanning tree; the first unbalanced component ends this depth
        parent = {}
        for root in (num[v] for v in nodes):
            if root in parent:
                continue
            parent[root] = None
            total = node_weight.get(root, 0)
            stack = [root]
            while stack:
                x = stack.pop()
                for y in sorted(adj[x]):
                    if y not in parent:
                        parent[y] = x
                        total += node_weight.get(y, 0)
                        stack.append(y)
            if total != 0:
                last_err = (f"component of {order[root]} carries net weight "
                            f"{total}")
                break
        else:
            # all components balanced: route each weight to its root
            terms = {}
            for x, c in node_weight.items():
                while parent[x] is not None:
                    seg = (parent[x], x)
                    terms[seg] = terms.get(seg, 0) + c
                    x = parent[x]
            terms = {(order[a], order[b]): c
                     for (a, b), c in terms.items() if c}
            return LipschitzChain(complex_, 1, terms, 0)
        # fall through: retry deeper
    raise LocalityError(f"zero-chain fill failed {context}: {last_err}")


def sorted_face_lists(dk, dk1):
    """The coreduction window's face and coface lists as built by walking
    each boundary's entries in sorted (row, column) order: faces of cell c
    as [(face, coefficient)], cofaces as ascending cells."""
    mid = dk.nrows
    top = mid + dk.ncols
    n = top + dk1.ncols
    faces = [[] for _ in range(n)]
    cofaces = [[] for _ in range(n)]
    for (i, j), v in sorted(dk.data.items()):
        faces[mid + j].append((i, v))
        cofaces[i].append(mid + j)
    for (i, j), v in sorted(dk1.data.items()):
        faces[top + j].append((mid + i, v))
        cofaces[mid + i].append(top + j)
    return faces, cofaces
