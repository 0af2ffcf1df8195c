"""Finite metric simplicial complexes with exact rational geometry.

A complex carries rational vertex coordinates in Euclidean space; the
metric is the restriction of the ambient distance.  Piecewise-linear maps,
Lipschitz extension of sampled data and covers by open balls all live
here.  Comparisons stay on squared distances.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from types import MappingProxyType

from .errors import GeometryError, InputError
from .geometry import (
    barycentric_subdivide,
    edge_matrix,
    gram_matrix,
    is_degenerate,
    point_simplex_dist2,
    rref,
    solve_fraction_system,
)
from .intlinalg import IntMatrix
from .chaincomplex import ChainComplexZ, RelativePair
from .rational import (dist2, dot, frac, integer_form, point, remember,
                       sqrt_lower)


def check_simplices(vertices, simplices):
    """The top simplices of a complex, in order, after checking it.

    simplices are distinct, nonempty, sorted index tuples in (len, t)
    order.  One walk over their faces checks the vertex indices and face
    closure and collects the faces; the simplices that are no face are
    the tops, and only they are tested by geometry.is_degenerate, since a
    face of an affinely independent tuple is independent.  If any of that
    fails, the simplices are scanned again in order and InputError names
    the first fault, so the message does not depend on which test found
    it: an invalid index, a missing face or a degenerate simplex.
    """
    index = set(simplices)
    faces = set()
    for t in simplices:
        fs = [t[:j] + t[j + 1:] for j in range(len(t))] if len(t) > 1 else ()
        if t[-1] >= len(vertices) or t[0] < 0 or not index.issuperset(fs):
            break
        faces.update(fs)
    else:
        tops = [t for t in simplices if t not in faces]
        if not any(is_degenerate([vertices[i] for i in t]) for t in tops):
            return tops
    for t in simplices:
        if t[-1] >= len(vertices) or t[0] < 0:
            raise InputError(f"simplex {t} has an invalid vertex index")
        for j in range(len(t)):
            f = t[:j] + t[j + 1:]
            if f and f not in index:
                raise InputError(f"face {f} of {t} is missing")
        if is_degenerate([vertices[i] for i in t]):
            raise InputError(f"simplex {t} is geometrically degenerate")
    raise AssertionError("the scan missed a fault that the walk found")


class MetricComplex:
    """Geometric simplicial complex with interned rational vertices
    (rational.point).

    simplices are sorted index tuples, closed under taking faces, each
    geometrically non-degenerate.  Named subcomplexes are lists of simplex
    indices, themselves face-closed.  The constructor checks all of this
    and raises InputError on the first fault: coordinate counts, empty or
    repeated-vertex simplices, then check_simplices(): vertex indices and
    face closure, and degeneracy by integer rank (geometry.is_degenerate)
    on the top simplices only, since every face of an affinely
    independent tuple is independent.

    The object is immutable after construction, and it owns point
    location.  It caches, each on first use and per depth d: the pieces of
    the d-fold barycentric subdivision of the tops (d = 0: the tops
    themselves) and their sorted vertex list; and one exact barycentric
    inverse per piece, which locates points for tops_holding() (at depth
    0) and cellwise PLMaps (at their own depth).  tops_holding() keeps
    its answer per point, so the locators see each distinct point once;
    find_containing_simplex() reads those answers.  That memo starts over
    when it holds rational.MEMO_LIMIT points.  Methods hand out fresh lists,
    tuples or read-only views, never the cached containers.
    """

    def __init__(self, ambient_dim, vertices, simplices, subcomplexes=None):
        self.ambient_dim = int(ambient_dim)
        self.vertices = [point(v) for v in vertices]
        for v in self.vertices:
            if len(v) != self.ambient_dim:
                raise InputError("vertex coordinate count does not match ambient_dim")
        seen = set()
        self.simplices = []
        for s in simplices:
            t = tuple(sorted(int(i) for i in s))
            if not t:
                raise InputError("empty simplex")
            if len(set(t)) != len(t):
                raise InputError(f"repeated vertex in simplex {s}")
            if t not in seen:
                seen.add(t)
                self.simplices.append(t)
        if not self.simplices:
            raise InputError("complex has no simplices")
        self.simplices.sort(key=lambda t: (len(t), t))
        self._tops = check_simplices(self.vertices, self.simplices)
        self.subcomplexes = {}
        for name, idxs in (subcomplexes or {}).items():
            self.subcomplexes[name] = sorted(set(int(i) for i in idxs))
            for i in self.subcomplexes[name]:
                if i < 0 or i >= len(self.simplices):
                    raise InputError(f"subcomplex {name!r} has a bad simplex index")
        self._index = {t: i for i, t in enumerate(self.simplices)}
        for name, idxs in self.subcomplexes.items():
            chosen = set(self.simplices[i] for i in idxs)
            for t in chosen:
                for j in range(len(t)):
                    f = t[:j] + t[j + 1:]
                    if f and f not in chosen:
                        raise InputError(f"subcomplex {name!r} is not face-closed")
        self._locs = {}     # depth -> [locator per piece]
        self._pieces = {}   # depth -> [(top simplex index, piece)]
        self._samples = {}  # depth -> sorted subdivision vertices
        self._held = {}     # point -> top positions holding it

    # -- basic queries ---------------------------------------------------

    def points_of(self, simplex):
        return tuple(self.vertices[i] for i in simplex)

    def dimension(self):
        return max(len(t) for t in self.simplices) - 1

    def top_simplices(self):
        """Simplices that are not proper faces of another simplex."""
        return list(self._tops)

    # -- point location ----------------------------------------------------

    def _locators(self, depth):
        """One exact locator per piece of subdivided_tops(depth), in order."""
        locs = self._locs.get(depth)
        if locs is None:
            locs = [_TopLocator(tup) for _, tup in self._subdivision(depth)]
            self._locs[depth] = locs
        return locs

    def _first_piece(self, depth, forms):
        """Position in subdivided_tops(depth) of the first piece holding
        every point of forms (integer_form), or None."""
        for j, loc in enumerate(self._locators(depth)):
            if all(loc.holds(q) for q in forms):
                return j
        return None

    def tops_holding(self, p):
        """Positions in top_simplices() of the top simplices holding p."""
        tops = self._held.get(p)
        if tops is None:
            q = integer_form(p)
            tops = remember(self._held, p, tuple(
                j for j, loc in enumerate(self._locators(0)) if loc.holds(q)))
        return tops

    def find_containing_simplex(self, points):
        """Index of a simplex containing every given point, or None.

        A simplex holding the points is a face of a top simplex, which holds
        them too, so the first such top simplex is returned.
        """
        held = [self.tops_holding(p) for p in points]
        first, *rest = held or [range(len(self._tops))]
        for j in first:
            for h in rest:
                if j not in h:
                    break
            else:
                return self._subdivision(0)[j][0]
        return None

    # -- barycentric subdivision -------------------------------------------

    def _subdivision(self, depth):
        pieces = self._pieces.get(depth)
        if pieces is None:
            if depth <= 0:
                pieces = [(self._index[t], self.points_of(t))
                          for t in self._tops]
            else:
                pieces = [(ti, sub) for ti, tup in self._subdivision(depth - 1)
                          for _, sub in barycentric_subdivide(tup)]
            self._pieces[depth] = pieces
        return pieces

    def _sample_list(self, depth):
        samples = self._samples.get(depth)
        if samples is None:
            samples = sorted({p for _, tup in self._subdivision(depth)
                              for p in tup})
            self._samples[depth] = samples
        return samples

    def subdivided_tops(self, depth: int):
        """Pieces of all top simplices after depth barycentric rounds.

        Returns a list of (top_simplex_index, piece vertex tuple).
        """
        return list(self._subdivision(depth))

    def sample_vertices(self, depth: int):
        """Deduplicated vertex points of the depth-fold subdivision, sorted."""
        return list(self._sample_list(depth))

    # -- simplicial chain complex ----------------------------------------

    def chain_basis(self):
        top = self.dimension()
        basis = {k: [] for k in range(top + 1)}
        for t in self.simplices:
            basis[len(t) - 1].append(t)
        for k in basis:
            basis[k].sort()
        return basis

    def chain_complex(self):
        basis = self.chain_basis()
        top = max(basis)
        dims = [len(basis[k]) for k in range(top + 1)]
        bnds = {}
        for k in range(1, top + 1):
            row = {t: i for i, t in enumerate(basis[k - 1])}
            signs = [(d, -1 if d % 2 else 1) for d in range(k + 1)]
            bnds[k] = IntMatrix(dims[k - 1], dims[k], {
                (row[t[:d] + t[d + 1:]], j): sign
                for j, t in enumerate(basis[k]) for d, sign in signs})
        return ChainComplexZ(dims, bnds), basis

    def relative_pair(self, name: str) -> RelativePair:
        if name not in self.subcomplexes:
            raise InputError(f"unknown subcomplex {name!r}")
        C, basis = self.chain_complex()
        chosen = [self.simplices[i] for i in self.subcomplexes[name]]
        sub = {}
        for k, blist in basis.items():
            pos = {t: i for i, t in enumerate(blist)}
            sub[k] = [pos[t] for t in chosen if len(t) - 1 == k]
        return RelativePair(C, sub)


class _TopLocator:
    """Exact membership test for one non-degenerate simplex v0..vk.

    With edge rows E and Gram matrix G = E E^T, the rows of M = G^-1 E map
    p - v0 to the barycentric coordinates of v1..vk whenever p lies in the
    affine hull; one reduction of [G | E] to [I | M] gives them.  A point
    is held when those coordinates are nonnegative with sum at most 1 and
    the edges rebuild p - v0 exactly, which is the verdict of
    geometry.point_in_simplex.  M, E and v0 are kept as integers
    over one denominator each, so a test makes no Fraction; only
    barycentric() turns a held point's coordinates into Fractions.
    """

    __slots__ = ("v0", "c", "rows", "cols", "d", "de")

    def __init__(self, verts):
        E = edge_matrix(verts)
        G = gram_matrix(verts)
        k = len(E)
        M = [row[k:] for row in rref([[*g, *e] for g, e in zip(G, E)])]
        self.v0, self.c = integer_form(verts[0])
        d = lcm(*(x.denominator for row in M for x in row))
        e = lcm(*(x.denominator for row in E for x in row))
        self.rows = [tuple((i, int(x * d)) for i, x in enumerate(row) if x)
                     for row in M]
        self.cols = [tuple((r, int(row[i] * e)) for r, row in enumerate(E)
                           if row[i])
                     for i in range(len(verts[0]))]
        self.d, self.de = d, d * e

    def _scaled(self, point):
        """lam for a held point, else None.  point is integer_form(p) =
        (P, q); delta is p - v0 scaled by q*c, and lam the coordinates of
        v1..vk scaled by d*q*c."""
        P, q = point
        c = self.c
        delta = [x * c - v * q for x, v in zip(P, self.v0)]
        lam = []
        for row in self.rows:
            x = sum(m * delta[i] for i, m in row)
            if x < 0:
                return None
            lam.append(x)
        if sum(lam) > self.d * q * c:
            return None
        de = self.de
        if all(sum(lam[r] * w for r, w in col) == y * de
               for col, y in zip(self.cols, delta)):
            return lam
        return None

    def holds(self, point):
        return self._scaled(point) is not None

    def barycentric(self, point):
        """Barycentric coordinates of v0..vk, as Fractions, of a held
        point; None for a point outside the simplex."""
        lam = self._scaled(point)
        if lam is None:
            return None
        scale = self.d * point[1] * self.c
        return ((Fraction(scale - sum(lam), scale),)
                + tuple(Fraction(x, scale) for x in lam))


# -- piecewise linear maps -------------------------------------------------


class PLMap:
    """Piecewise-affine map into R^m.

    Either globally affine (matrix plus offset) or cellwise: one value per
    vertex of a MetricComplex's depth-fold barycentric subdivision, affine
    on each piece.  Pieces that share a face share its vertices and so its
    values, which makes a cellwise map continuous, and Lipschitz, by
    construction.  Evaluation is exact over Q; the complex's locators for
    that depth find the piece holding a point.
    """

    def __init__(self, target_dim, matrix=None, offset=None, *,
                 complex_=None, depth=None, values=None):
        self.target_dim = int(target_dim)
        self.matrix = None
        self.offset = None
        self.complex = complex_
        self.depth = depth
        self.values = None
        if matrix is not None:
            self.matrix = [tuple(frac(x) for x in row) for row in matrix]
            self.offset = tuple(frac(x) for x in (offset or [0] * self.target_dim))
            if len(self.matrix) != self.target_dim:
                raise InputError("affine matrix has wrong number of rows")
            if len(self.offset) != self.target_dim:
                raise InputError("affine offset length differs from the "
                                 "number of rows")
            if len({len(row) for row in self.matrix}) > 1:
                raise InputError("affine matrix rows differ in length")
        else:
            self.values = {p: tuple(frac(x) for x in v)
                           for p, v in values.items()}
            if any(len(v) != self.target_dim for v in self.values.values()):
                raise InputError("vertex value has wrong target dimension")

    # constructors

    @staticmethod
    def affine(matrix, offset=None):
        return PLMap(len(matrix), matrix=matrix, offset=offset)

    @staticmethod
    def constant(point):
        n = len(point)
        return PLMap(n, matrix=[[0] * n for _ in range(n)], offset=point)

    @staticmethod
    def coordinate(n, j):
        """Projection to the j-th coordinate as a scalar map."""
        return PLMap(1, matrix=[[1 if i == j else 0 for i in range(n)]])

    @staticmethod
    def from_vertex_values(complex_, depth, value_fn, target_dim):
        """Cellwise map taking value_fn(v) at each vertex v of the
        complex's depth-fold subdivision."""
        values = {p: value_fn(p) for p in complex_._sample_list(depth)}
        return PLMap(target_dim, complex_=complex_, depth=depth, values=values)

    @staticmethod
    def scalar_from_vertex_values(complex_, depth, value_fn):
        return PLMap.from_vertex_values(complex_, depth,
                                        lambda p: (value_fn(p),), 1)

    # evaluation

    def _pieces(self):
        """(piece, its vertex values) over the subdivision of a cellwise map."""
        return [(tup, [self.values[v] for v in tup])
                for _, tup in self.complex._subdivision(self.depth)]

    def find_cell(self, points):
        """Position in complex.subdivided_tops(depth) of a piece containing
        all the points, or None."""
        return self.complex._first_piece(
            self.depth, [integer_form(p) for p in points])

    def __call__(self, p):
        p = tuple(frac(x) for x in p)
        if self.matrix is not None:
            return tuple(dot(row, p) + off for row, off in zip(self.matrix, self.offset))
        q = integer_form(p)
        i = self.complex._first_piece(self.depth, [q])
        if i is None:
            raise GeometryError(f"point {p} is outside every cell of the map")
        lam = self.complex._locators(self.depth)[i].barycentric(q)
        _, piece = self.complex._subdivision(self.depth)[i]
        vals = [self.values[v] for v in piece]
        return tuple(sum((l * v[d] for l, v in zip(lam, vals)), Fraction(0))
                     for d in range(self.target_dim))

    def scalar(self, p) -> Fraction:
        if self.target_dim != 1:
            raise InputError("not a scalar map")
        return self(p)[0]

    def affine_on(self, simplex_points) -> bool:
        """Is the map affine on the given simplex (so vertex images determine it)?"""
        if self.matrix is not None:
            return True
        return self.find_cell(list(simplex_points)) is not None

    # Lipschitz data

    def scalar_lipschitz_squared(self) -> Fraction:
        """Exact squared Lipschitz constant of a scalar map, maximized over
        cells (restricted to each cell's tangent space)."""
        if self.target_dim != 1:
            raise InputError("not a scalar map")
        if self.matrix is not None:
            return dot(self.matrix[0], self.matrix[0])
        best = Fraction(0)
        for cell, vals in self._pieces():
            d = [w[0] for w in edge_matrix(vals)]
            a = solve_fraction_system(gram_matrix(cell), d)
            best = max(best, sum((ai * di for ai, di in zip(a, d)), Fraction(0)))
        return best

    def lipschitz_at_most(self, L) -> bool:
        """Exact check Lip <= L via positive semidefiniteness of
        L^2 G_source - G_target on every cell."""
        L2 = frac(L) ** 2
        if self.matrix is not None:
            # rows of the matrix act on the whole space
            A = self.matrix
            M = [[sum(A[d][i] * A[d][j] for d in range(self.target_dim))
                  for j in range(len(A[0]))] for i in range(len(A[0]))]
            I = [[L2 if i == j else Fraction(0) for j in range(len(M))] for i in range(len(M))]
            diff = [[I[i][j] - M[i][j] for j in range(len(M))] for i in range(len(M))]
            return _psd(diff)
        for cell, vals in self._pieces():
            G, H = gram_matrix(cell), gram_matrix(vals)
            diff = [[L2 * G[i][j] - H[i][j] for j in range(len(G))] for i in range(len(G))]
            if not _psd(diff):
                return False
        return True


def _psd(M) -> bool:
    """Exact positive semidefiniteness of a symmetric Fraction matrix,
    via Schur-complement elimination over Q."""
    n = len(M)
    A = [[frac(x) for x in row] for row in M]
    for k in range(n):
        if A[k][k] < 0:
            return False
        if A[k][k] == 0:
            # a zero diagonal entry forces its whole row and column to vanish
            if any(A[k][j] != 0 for j in range(k, n)) or any(A[i][k] != 0 for i in range(k, n)):
                return False
            continue
        p = A[k][k]
        for i in range(k + 1, n):
            if A[i][k]:
                f = A[i][k] / p
                for j in range(k + 1, n):
                    A[i][j] -= f * A[k][j]
                A[i][k] = Fraction(0)
        for j in range(k + 1, n):
            A[k][j] = Fraction(0)
    return True


# -- McShane extension -----------------------------------------------------


def mcshane_extension(complex_: MetricComplex, boundary_values, L, depth=2):
    """Rational McShane extension, pairwise L-Lipschitz on sample vertices.

    boundary_values: list of (point, value) pairs with rational values,
    checked to be L-Lipschitz pairwise (exact squared comparison).  Sample
    points are the depth-fold subdivision vertices, taken in order; each
    gets the inf-convolution bound min_p v_p + L d(x, p) over the points
    assigned before it, every root rounded down to a multiple of 2^-prec
    for the first prec of 40, 80, 160 and 320 at which the value is exactly
    L-Lipschitz against all of them.  Boundary data is matched without
    rounding.  Returns the scalar cellwise PLMap interpolating these
    values; only they are L-Lipschitz, and on 2-cells the map's own
    Lipschitz constant can exceed L.
    """
    L = frac(L)
    if L < 0:
        raise InputError("negative Lipschitz bound")
    anchors = []
    for p, v in boundary_values:
        p = tuple(frac(x) for x in p)
        anchors.append((p, frac(v)))
    for (p, u), (q, v) in combinations(anchors, 2):
        if (u - v) ** 2 > L * L * dist2(p, q):
            raise GeometryError(
                f"boundary data is not {L}-Lipschitz on the pair {p}, {q}")

    assigned = dict(anchors)
    for x in complex_.sample_vertices(depth):
        if x in assigned:
            continue
        bounds = [(v, L * L * dist2(x, p)) for p, v in assigned.items()]
        for prec in (40, 80, 160, 320):
            # rounding down keeps q <= v + L d(x, p); the check is exact
            q = min(v + sqrt_lower(d2, prec) for v, d2 in bounds)
            if all((q - v) ** 2 <= d2 for v, d2 in bounds):
                break
        else:
            raise GeometryError(
                f"no rational value admissible at sample point {x}")
        assigned[x] = q

    return PLMap.scalar_from_vertex_values(complex_, depth,
                                           assigned.__getitem__)


# -- covers by open balls ---------------------------------------------------


class BallCover:
    """Cover of the carrier by open metric balls with rational data.

    Each ball stores an exact rational center (optionally described
    barycentrically inside a named simplex) and a rational radius.
    Membership tests compare squared distances, against the squared radii
    and integer forms of the centers stored at construction; the balls do
    not change afterwards.  balls_holding() keeps, per point, the set of
    balls that hold it strictly, found on first ask from one integer form
    and one test per ball, and every membership question reads it:
    contains(), simplex_inside() and first_ball_containing() (a simplex is
    inside a ball when all its vertices are, by convexity), and the
    members() table of each sample depth.  That memo starts over when it
    holds rational.MEMO_LIMIT points.
    """

    def __init__(self, complex_: MetricComplex, balls):
        self.complex = complex_
        self.centers = []
        self.radii = []
        self.descriptions = []
        for b in balls:
            if "center" in b:
                c = point(b["center"])
                if len(c) != complex_.ambient_dim:
                    raise InputError("ball center coordinate count does not "
                                     "match ambient_dim")
                desc = None
            else:
                si = int(b["center_simplex"])
                if not 0 <= si < len(complex_.simplices):
                    raise InputError(f"center_simplex {si} is not a simplex "
                                     f"index of the complex")
                lam = [frac(x) for x in b["barycentric"]]
                tup = complex_.simplices[si]
                if len(lam) != len(tup):
                    raise InputError("barycentric coordinate count mismatch")
                if sum(lam) != 1 or any(x < 0 for x in lam):
                    raise InputError("barycentric coordinates must be a convex combination")
                pts = complex_.points_of(tup)
                c = point(sum((l * p[d] for l, p in zip(lam, pts)),
                              Fraction(0))
                          for d in range(complex_.ambient_dim))
                desc = (si, tuple(lam))
            r = frac(b["radius"])
            if r <= 0:
                raise InputError("ball radius must be positive")
            self.centers.append(c)
            self.radii.append(r)
            self.descriptions.append(desc)
        self._radii2 = [r * r for r in self.radii]
        self._centers_int = [integer_form(c) for c in self.centers]
        self._near = None
        self._inside = {}   # point -> balls holding it
        self._members = {}  # depth -> {sample vertex: balls holding it}

    def __len__(self):
        return len(self.centers)

    def members(self, depth: int):
        """Read-only map from each vertex of complex.sample_vertices(depth),
        in that order, to the frozenset of balls holding it strictly."""
        table = self._members.get(depth)
        if table is None:
            table = {p: self.balls_holding(p)
                     for p in self.complex._sample_list(depth)}
            self._members[depth] = table
        return MappingProxyType(table)

    def balls_holding(self, p):
        """Frozenset of the balls holding the point p strictly."""
        inside = self._inside.get(p)
        if inside is None:
            form = integer_form(p)
            inside = remember(self._inside, p, frozenset(
                i for i in range(len(self.centers)) if self._holds(i, form)))
        return inside

    def contains(self, i, p) -> bool:
        """Strict membership of the point p in ball i."""
        return i in self.balls_holding(p)

    def _holds(self, i, form) -> bool:
        """The point P/q = form (integer_form) strictly in ball i, on
        integers: with the center C/c, |P/q - C/c|^2 < r^2 reads
        sum (P c - C q)^2 < r^2 (q c)^2."""
        P, q = form
        C, c = self._centers_int[i]
        r2 = self._radii2[i]
        return (sum((x * c - y * q) ** 2 for x, y in zip(P, C))
                * r2.denominator < r2.numerator * (q * c) ** 2)

    def simplex_inside(self, i, tup) -> bool:
        """Whole simplex strictly inside the open ball (convexity)."""
        return all(i in self.balls_holding(p) for p in tup)

    def first_ball_containing(self, tup, balls):
        """The first of the listed balls, in their order, that holds the
        whole simplex strictly, or None."""
        common = frozenset.intersection(*map(self.balls_holding, tup))
        return next((i for i in balls if i in common), None)

    def verify_covers(self, depth: int):
        """Every depth-subdivision piece must fit in one ball.

        Returns the list of uncovered pieces (empty when certified)."""
        missed = []
        for _, tup in self.complex.subdivided_tops(depth):
            if self.first_ball_containing(tup, range(len(self))) is None:
                missed.append(tup)
        return missed

    def _near_tops(self):
        """For each ball, the set of top simplices (by position in
        top_simplices()) closer to its center than its radius; computed
        once per cover."""
        if self._near is None:
            tops = [self.complex.points_of(s)
                    for s in self.complex.top_simplices()]
            self._near = [
                {j for j, tup in enumerate(tops)
                 if point_simplex_dist2(c, tup) < r2}
                for c, r2 in zip(self.centers, self._radii2)]
        return self._near

    def intersection_empty_certificate(self, indices) -> bool:
        """Exact proof that the listed balls share no carrier point.

        Certifies emptiness when two listed balls are disjoint in the
        ambient space, (r_i + r_j)^2 <= |c_i - c_j|^2, or when every top
        simplex keeps its whole distance to some listed center at least
        that ball's radius, that is, when no top simplex is near every
        listed ball.  A False return is inconclusive on its own.
        """
        for i, j in combinations(indices, 2):
            if (self.radii[i] + self.radii[j]) ** 2 <= \
                    dist2(self.centers[i], self.centers[j]):
                return True
        near = self._near_tops()
        common = set(range(len(self.complex.top_simplices())))
        for i in indices:
            common &= near[i]
        return not common
