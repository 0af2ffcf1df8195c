"""Integer-weighted oriented affine simplices, shared by chains and currents.

A piecewise-affine chain and a polyhedral current of degree k are both
finite sums of ordered (k+1)-tuples of rational points with integer
weights; the bracket map between them keeps the tuples.  This base class
holds every operation that reads only tuples and weights: sums and
multiples, the alternating boundary, barycentric refinement, cones,
staircase prisms, vertexwise images and refinement until given maps are
affine.  Subclasses fix the carrier the tuples live in and what it means
for a sum to vanish.

Who validates and who owns a terms dict: the constructors check input
from outside (every point becomes an interned rational.Point, a tuple of
interned coordinates that stores its hash, and every tuple has degree + 1
points of the ambient dimension) and build a dict of their own.
Everything the algebra derives from valid terms (sums, multiples,
boundaries, subdivisions, cones, cover splits, canonical forms, and the
bracket, whose current adopts a copy of its chain's terms) goes through
like(), which takes the fresh dict it is given as the new terms without
checking or copying it.  Derived tuples hold the same Points, so keying
a term reads one stored hash per point and hashes no coordinate.  A
terms dict belongs to one object and is never mutated after that object
is built.
"""

from .errors import GeometryError, InputError
from .geometry import (barycentric_subdivide, simplex_boundary_terms,
                       staircase_prism)
from .rational import centroid, point

MAX_SPLIT_ROUNDS = 8


class WeightedSimplices:
    """Integer combination of oriented point tuples of one degree."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=None):
        if degree < 0:
            raise InputError("degree must be nonnegative")
        pairs = []
        if terms:
            dim = self.ambient_dim
            for tup, w in dict(terms).items():
                w = int(w)
                if w == 0:
                    continue
                tup = tuple(point(p) for p in tup)
                if len(tup) != degree + 1:
                    raise InputError(
                        f"a degree-{degree} simplex needs {degree + 1} points")
                if any(len(p) != dim for p in tup):
                    raise InputError("point dimension does not match the "
                                     "ambient space")
                pairs.append((tup, w))
        own = dict(pairs)
        if len(own) < len(pairs):  # distinct inputs named the same points
            own = {}
            for tup, w in pairs:
                own[tup] = own.get(tup, 0) + w
        self._adopt(int(degree), own)

    def _adopt(self, degree, terms):
        """Set the degree and adopt terms, deleting its zero weights."""
        if 0 in terms.values():
            for tup in [t for t, w in terms.items() if not w]:
                del terms[tup]
        self.degree = degree
        self.terms = terms

    def like(self, degree, terms):
        """Same kind on the same carrier, with the given degree and terms.

        Takes ownership of terms, a fresh dict of valid point tuples that
        the caller built and does not keep: its zero weights are deleted in
        place and nothing is checked, copied or hashed again.
        """
        raise NotImplementedError

    @staticmethod
    def _gather(items):
        """Sum (weight, point tuple) items; returns (terms, degree or None)."""
        terms = {}
        degree = None
        for w, tup in items:
            tup = tuple(point(p) for p in tup)
            if degree is None:
                degree = len(tup) - 1
            elif len(tup) - 1 != degree:
                raise InputError("mixed degrees in one sum")
            terms[tup] = terms.get(tup, 0) + int(w)
        return terms, degree

    def _expand(self, fn):
        """Replace each tuple by the signed tuples fn returns for it."""
        terms = {}
        for tup, w in self.terms.items():
            for sign, new in fn(tup):
                terms[new] = terms.get(new, 0) + sign * w
        return terms

    def _images(self, fn):
        """Terms with every vertex replaced by fn(vertex)."""
        return self._expand(
            lambda tup: ((1, tuple(point(fn(p)) for p in tup)),))

    def _staircase(self, h0, h1):
        """Prism terms between the vertexwise images under h0 and h1.

        With P this operator, b(P z) + P(b z) = h1(z) - h0(z) holds exactly
        on representations, for any vertex data.
        """
        return self._expand(lambda tup: staircase_prism(
            tuple(point(h0(p)) for p in tup),
            tuple(point(h1(p)) for p in tup)))

    # ---- algebra ----

    def reduce(self):
        """The representative that zero tests and cover splits read.

        Chains compare term by term, so a chain is its own; currents
        override this with their canonical form.
        """
        return self

    def is_zero(self):
        return not self.reduce().terms

    def equals(self, other):
        return (self - other).is_zero()

    def align(self, other):
        """Check that both operands can be added; returns them."""
        if self.ambient_dim != other.ambient_dim or self.degree != other.degree:
            raise InputError("operands differ in ambient dimension or degree")
        return self, other

    def _combine(self, other, n):
        """self + n * other in one pass over the aligned operands."""
        a, b = self.align(other)
        terms = dict(a.terms)
        for tup, w in b.terms.items():
            terms[tup] = terms.get(tup, 0) + n * w
        return a.like(a.degree, terms)

    def __add__(self, other):
        return self._combine(other, 1)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, n):
        n = int(n)
        return self.like(self.degree,
                         {t: n * w for t, w in self.terms.items() if n * w})

    def boundary(self):
        """Alternating sum of facets of every term; degrees 1 and 2 write
        them in the order and with the signs of simplex_boundary_terms."""
        k = self.degree
        if k == 0:
            return self.like(0, {})
        if k > 2:
            return self.like(k - 1, self._expand(simplex_boundary_terms))
        terms = {}
        if k == 1:
            for (a, b), w in self.terms.items():
                terms[b,] = terms.get((b,), 0) + w
                terms[a,] = terms.get((a,), 0) - w
        else:
            for (a, b, c), w in self.terms.items():
                terms[b, c] = terms.get((b, c), 0) + w
                terms[a, c] = terms.get((a, c), 0) - w
                terms[a, b] = terms.get((a, b), 0) + w
        return self.like(k - 1, terms)

    def subdivide(self, times=1):
        """Barycentric refinement of every term; the sum is unchanged."""
        out = self
        for _ in range(times):
            out = out.like(out.degree, out._refine())
        return out

    def _refine(self):
        """Terms of one barycentric round.  Points stay as they are and
        edges halve in place, in the order and with the signs of
        barycentric_subdivide."""
        if self.degree == 0:
            return dict(self.terms)
        if self.degree > 1:
            return self._expand(barycentric_subdivide)
        terms = {}
        for (a, b), w in self.terms.items():
            m = centroid((a, b))
            terms[m, b] = terms.get((m, b), 0) + w
            terms[m, a] = terms.get((m, a), 0) - w
        return terms

    def refine_until_affine(self, maps):
        """Subdivide until every map in maps is affine on every term."""
        out = self
        for _ in range(MAX_SPLIT_ROUNDS + 1):
            if all(m.affine_on(tup) for tup in out.terms for m in maps):
                return out
            out = out.subdivide()
        raise GeometryError("maps never became affine on the refined terms")

    def cone(self, apex):
        """Join to a point: the apex prepended to every term.

        boundary(cone z) = z - cone(boundary z), so cones fill cycles.
        """
        v = point(apex)
        return self.like(self.degree + 1,
                         self._expand(lambda tup: ((1, (v,) + tup),)))

    def __len__(self):
        return len(self.terms)
