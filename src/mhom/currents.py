"""Polyhedral integral currents in rational ambient space.

A current of degree k is an integer combination of oriented k-simplices,
each an ordered (k+1)-tuple of rational points; the tuple algebra lives in
WeightedSimplices.  A tuple denotes the affine image of the standard
simplex, so its action on an affine k-form f dpi_1 ^ ... ^ dpi_k is
weight * det(Dpi) * integral of f, all exact.

reduce() computes a canonical representative: pieces are merged per affine
k-flat through a common refinement, each region's multiplicity is summed
over the pieces that cover it, and each flat is retriangulated
deterministically.  A flat's chart reads points at the pivot columns of its
echelon basis, so entering it solves nothing; each simplex's flat is
charted once, into a memo that rational.remember bounds.  On a
line (k = 1) the refinement is one sweep over the sorted endpoint
coordinates at the single pivot column, whatever the pieces' order.  In
higher degree it is the arrangement of the pieces' facet hyperplanes: a
cut keeps every fragment non-degenerate, oriented like its piece and on
one side, so the sides chosen while cutting name its region and nothing is
re-checked.  Two representations describe the same current exactly when
their difference reduces to nothing.
"""

from fractions import Fraction
from math import factorial, gcd

from .errors import GeometryError, InputError
from .geometry import (cut_simplex_by_values, canonical_orientation,
                       det_fraction, edge_matrix, gram_det,
                       integrate_affine, rref)
from .rational import RadicalSum, dot, frac, integer_form, point, remember
from .weighted import WeightedSimplices

# bounds the fragments of one flat's hyperplane arrangement, which only
# degree >= 2 builds; the degree-one sweep makes no fragments
MAX_FRAGMENTS = 50000

# simplex -> ((anchor, R), pivots), kept by _flat_chart
_FLATS = {}


class PolyhedralCurrent(WeightedSimplices):
    """Integer-weighted oriented rational simplices of one degree."""

    __slots__ = ("ambient_dim",)

    def __init__(self, ambient_dim, degree, pieces=None):
        self.ambient_dim = int(ambient_dim)
        super().__init__(degree, pieces)

    @property
    def pieces(self):
        return self.terms

    def like(self, degree, terms):
        out = PolyhedralCurrent.__new__(PolyhedralCurrent)
        out.ambient_dim = self.ambient_dim
        out._adopt(degree, terms)
        return out

    @staticmethod
    def from_tuples(ambient_dim, items, degree=None):
        pieces, first = WeightedSimplices._gather(items)
        if degree is None:
            if first is None:
                raise InputError("cannot infer degree; pass degree=")
            degree = first
        return PolyhedralCurrent(ambient_dim, degree, pieces)

    @staticmethod
    def zero(ambient_dim, degree):
        return PolyhedralCurrent(ambient_dim, degree, {})

    def evaluate(self, f, pis):
        """Action on (f, pi_1, ..., pi_k) with piecewise-affine scalar data.

        Exact rational: pieces are refined until all entries are affine on
        each, then per piece the integral is weight * det(pi differences) *
        mean(f at vertices) / k!.
        """
        pis = list(pis)
        if len(pis) != self.degree:
            raise InputError(f"need exactly {self.degree} one-form entries")
        cur = self.refine_until_affine([f] + pis)
        total = Fraction(0)
        k = self.degree
        for tup, w in cur.terms.items():
            fvals = [f.scalar(p) for p in tup]
            if k == 0:
                total += w * fvals[0]
                continue
            mat = [[pi.scalar(tup[j + 1]) - pi.scalar(tup[0]) for j in range(k)]
                   for pi in pis]
            d = det_fraction(mat)
            if d:
                total += w * d * integrate_affine(tup, fvals)
        return total

    def mass(self):
        """Total mass, as an exact radical sum over the canonical form: a
        k-piece of weight w adds |w| sqrt(gram det) / k!, a point adds |w|."""
        cur = self.reduce()
        k_factorial = factorial(cur.degree)
        total = RadicalSum()
        for tup, w in cur.terms.items():
            total = total + RadicalSum.sqrt_of(gram_det(tup)).scale(
                Fraction(abs(w), k_factorial))
        return total

    def mass_float(self):
        lo, hi = self.mass().bounds(40)
        return float((lo + hi) / 2)

    def pushforward(self, plmap):
        """Image current under a piecewise-affine map, by vertex images of
        refined pieces.  Degenerate images are kept; reduce() removes them."""
        cur = self.refine_until_affine([plmap])
        return PolyhedralCurrent(plmap.target_dim, self.degree,
                                 cur._images(plmap))

    def product_interval(self):
        """Product with [0,1]: staircase triangulation in one more dimension.

        Satisfies boundary(T x I) = T x {1} - T x {0} - (boundary T) x I
        exactly at the level of representations.
        """
        pieces = self._staircase(lambda p: p + (0,), lambda p: p + (1,))
        return PolyhedralCurrent(self.ambient_dim + 1, self.degree + 1, pieces)

    def embed_at_height(self, t):
        t = frac(t)
        return PolyhedralCurrent(self.ambient_dim + 1, self.degree,
                                 self._images(lambda p: p + (t,)))

    def __repr__(self):
        return (f"PolyhedralCurrent(dim={self.ambient_dim}, degree={self.degree}, "
                f"pieces={len(self.terms)})")

    # ---- canonical form ----

    def reduce(self):
        """Canonical representative of the current.

        Degenerate pieces vanish; the rest are grouped by the affine k-flat
        they span, charted by the flat's pivot coordinates, and rewritten as
        a deterministic triangulation weighted by the exact multiplicity of
        each region of the refinement.  A line's regions are the intervals
        between consecutive endpoints, swept left to right; above degree
        one the pieces are cut against each other's facet hyperplanes and
        each fragment's region is the tuple of sides it was cut to, since
        cutting never yields a degenerate fragment or one that straddles a
        hyperplane.
        """
        k = self.degree
        merged = {}
        for tup, w in self.terms.items():
            key, sign = canonical_orientation(tup)
            merged[key] = merged.get(key, 0) + sign * w
        merged = {t: w for t, w in merged.items() if w}
        if k == 0:
            return self.like(0, merged)

        # only the arrangement (k >= 2) reads the members' order
        groups = {}
        for tup, w in merged.items() if k == 1 else sorted(merged.items()):
            fkey, pivots = _flat_chart(tup)
            if len(pivots) == k:  # else the piece is degenerate
                groups.setdefault(fkey, (pivots, []))[1].append((tup, w))

        on_flat = _reduce_on_line if k == 1 else _reduce_in_chart
        out = {}
        for fkey in sorted(groups):
            pivots, members = groups[fkey]
            for tup, w in on_flat(fkey, pivots, members):
                out[tup] = out.get(tup, 0) + w
        return self.like(k, out)


def _flat_chart(tup):
    """Canonical key (anchor, R) and pivot columns of a simplex's flat.

    R is the reduced echelon basis of the flat's directions, with R_i equal
    to 1 at its pivot column P_i and 0 at every other pivot column.  A flat
    point's chart coordinates are therefore its coordinates at the pivot
    columns, and the anchor is the flat point whose pivot coordinates are 0.
    The anchor and the rows of R are interned Points, so a key hashes
    from stored hashes.  Each answer is kept in _FLATS, which starts over
    when it holds rational.MEMO_LIMIT simplices.
    """
    hit = _FLATS.get(tup)
    if hit is not None:
        return hit
    R = tuple(point(r) for r in rref(edge_matrix(tup)))
    pivots = tuple(next(j for j, x in enumerate(r) if x) for r in R)
    anchor = tup[0]
    for j, r in zip(pivots, R):
        c = anchor[j]
        anchor = tuple(u - c * v for u, v in zip(anchor, r))
    return remember(_FLATS, tup, ((point(anchor), R), pivots))


def _from_chart(fkey, x):
    """The point of the flat keyed fkey at chart coordinates x, interned."""
    p, R = fkey
    for c, r in zip(x, R):
        p = tuple(u + c * v for u, v in zip(p, r))
    return point(p)


def _facet_hyperplanes(chart_tup):
    """Hyperplanes spanned by the facets of a non-degenerate chart k-simplex.

    A facet's normal is the vector of signed maximal minors of its edge
    matrix, made primitive with its first nonzero entry positive.
    """
    k = len(chart_tup) - 1
    out = []
    for i in range(k + 1):
        facet = chart_tup[:i] + chart_tup[i + 1:]
        E = edge_matrix(facet)
        ints, _ = integer_form([(-1) ** j * det_fraction(
            [row[:j] + row[j + 1:] for row in E]) for j in range(k)])
        g = gcd(*ints)
        if next(v for v in ints if v) < 0:
            g = -g
        n = tuple(v // g for v in ints)
        out.append((n, dot(n, facet[0])))
    return out


def _reduce_on_line(fkey, pivots, members):
    """Canonical weighted segments of one line's non-degenerate pieces.

    Each piece adds its signed weight between its endpoints' coordinates
    at the line's pivot column.  The multiplicity is constant between
    consecutive distinct endpoints, so one sweep over the sorted endpoints
    yields every interval with a nonzero multiplicity, left to right: the
    regions, order and terms of _reduce_in_chart, whatever the members'
    order.  Every breakpoint is a piece's endpoint, so no point is mapped
    back from the chart.
    """
    (j,) = pivots
    at = {}
    step = {}
    for (p, q), w in members:
        if p[j] > q[j]:
            p, q, w = q, p, -w
        at[p[j]] = p
        at[q[j]] = q
        step[p[j]] = step.get(p[j], 0) + w
        step[q[j]] = step.get(q[j], 0) - w
    ts = sorted(at)
    out = []
    mult = 0
    for s, t in zip(ts, ts[1:]):
        mult += step[s]
        if mult:
            key, sign = canonical_orientation((at[s], at[t]))
            out.append((key, sign * mult))
    return out


def _reduce_in_chart(fkey, pivots, members):
    """Canonical weighted triangulation of one flat's non-degenerate pieces.

    reduce calls it in degree 2 and up; on a line it gives the terms of
    _reduce_on_line, in the same order.

    cut_simplex_by_values keeps every fragment non-degenerate, oriented like
    its piece and on one side of the cut, so a fragment's region is the
    tuple of sides it was cut to and no fragment is tested again.  Only
    the hyperplanes that cross a piece's interior cut its fragments.
    """
    cpieces = []
    for tup, w in members:
        ctup = tuple(tuple(p[j] for j in pivots) for p in tup)
        s = 1 if det_fraction(edge_matrix(ctup)) > 0 else -1
        cpieces.append((ctup, w, s))

    hyps = set()
    for ctup, _, _ in cpieces:
        hyps.update(_facet_hyperplanes(ctup))
    hyps = sorted(hyps)

    # cut every piece by every hyperplane, recording the side of each cut
    regions = {}
    total = 0
    for idx, (ctup, _, _) in enumerate(cpieces):
        frags = [(ctup, ())]
        for n, c in hyps:
            vals = [dot(n, p) for p in ctup]
            # a hyperplane that misses the piece's interior puts every
            # fragment on one side, as cutting each of them would
            if max(vals) <= c:
                frags = [(f, sig + (-1,)) for f, sig in frags]
            elif min(vals) >= c:
                frags = [(f, sig + (1,)) for f, sig in frags]
            else:
                nxt = []
                for f, sig in frags:
                    lo, hi = cut_simplex_by_values(
                        f, [dot(n, p) for p in f], c)
                    nxt.extend((g, sig + (-1,)) for g in lo)
                    nxt.extend((g, sig + (1,)) for g in hi)
                frags = nxt
            total += len(frags)
            if total > MAX_FRAGMENTS:
                raise GeometryError("canonical form exceeded the fragment budget")
        for f, sig in frags:
            regions.setdefault(sig, {}).setdefault(idx, []).append(f)

    # every piece is the intersection of its facet half-spaces, all among
    # the hyperplanes, so a region lies inside each piece with a fragment
    # in it and outside every other piece
    out = []
    for sig in sorted(regions):
        pieces = regions[sig]
        mult = sum(cpieces[i][1] * cpieces[i][2] for i in pieces)
        if mult == 0:
            continue
        # deterministic triangulation: fragments of the lowest-index piece
        first = min(pieces)
        for f in pieces[first]:
            fpos = f if cpieces[first][2] > 0 else (f[1], f[0]) + f[2:]
            amb = tuple(_from_chart(fkey, p) for p in fpos)
            key, sign = canonical_orientation(amb)
            out.append((key, sign * mult))
    return out
