"""Piecewise-affine chains on a metric simplicial complex.

A chain of degree k is a finite integer combination of affine k-simplices,
each recorded as an ordered (k+1)-tuple of rational points whose convex hull
is certified to lie inside the carrier.  The tuple algebra lives in
WeightedSimplices; a chain adds the carrier checks and a subdivision level:
two chains are considered the same element when they agree after refining
both to a common level, so addition first aligns levels by subdividing the
coarser operand.

A chain keeps its one-round refinement, built on first use, in a slot:
a cancel's cover split and its final boundary check refine one chain,
and the second reads the first's result.  Chains are never mutated, so
it stays valid, and it dies with its chain, where a module memo would
outlive the operation.
"""

from .errors import GeometryError, InputError
from .geometry import barycentric_subdivide, canonical_orientation
from .weighted import WeightedSimplices


class LipschitzChain(WeightedSimplices):
    """Integer combination of affine simplices inside a fixed carrier."""

    __slots__ = ("complex", "level", "_refined")

    def __init__(self, complex_, degree, terms=None, level=0):
        self.complex = complex_
        self.level = level
        self._refined = None
        super().__init__(degree, terms)
        self.check_carrier()

    @property
    def ambient_dim(self):
        return self.complex.ambient_dim

    def like(self, degree, terms):
        out = LipschitzChain.__new__(LipschitzChain)
        out.complex = self.complex
        out.level = self.level
        out._refined = None
        out._adopt(degree, terms)
        return out

    def check_carrier(self):
        """Raise unless every term lies inside one simplex of the carrier."""
        for tup in self.terms:
            if self.complex.find_containing_simplex(tup) is None:
                raise GeometryError(
                    f"simplex with vertices {tup} leaves the carrier")
        return self

    @staticmethod
    def zero(complex_, degree):
        return LipschitzChain(complex_, degree, {})

    @staticmethod
    def from_simplices(complex_, items):
        """items: iterable of (coefficient, point tuple), at level 0."""
        terms, degree = WeightedSimplices._gather(items)
        if degree is None:
            raise InputError("cannot infer degree from an empty list; use zero()")
        return LipschitzChain(complex_, degree, terms)

    def _compatible(self, other):
        if self.complex is not other.complex or self.degree != other.degree:
            raise InputError("chains live on different carriers or degrees")

    def align(self, other):
        """Bring both chains to a common subdivision level."""
        self._compatible(other)
        a, b = self, other
        while a.level < b.level:
            a = a.subdivide()
        while b.level < a.level:
            b = b.subdivide()
        return a, b

    def __eq__(self, other):
        if not isinstance(other, LipschitzChain):
            return NotImplemented
        a, b = self.align(other)
        return a.terms == b.terms

    def subdivide(self, times=1):
        """Barycentric refinement; raises the level tag with each round.
        Each round is built once per chain (see the module docstring)."""
        out = self
        for _ in range(times):
            if out._refined is None:
                out._refined = out.like(out.degree, out._refine())
                out._refined.level = out.level + 1
            out = out._refined
        return out

    def canonical(self):
        """Vertex-sorted form with orientation signs.

        Tuples with a repeated point are dropped: enough further barycentric
        rounds annihilate them exactly, and callers only use this after
        aligning levels with slack.
        """
        out = {}
        for tup, c in self.terms.items():
            if len(set(tup)) < len(tup):
                continue
            key, sign = canonical_orientation(tup)
            out[key] = out.get(key, 0) + sign * c
        return {t: c for t, c in out.items() if c}

    def equal_in_limit(self, other):
        """Equality after refining both sides to a deep common level.

        Reordered copies of an affine simplex agree (with orientation sign)
        after one barycentric round, so canonical forms at matching levels,
        max(2, degree) rounds down, decide equality in the refinement limit.
        """
        self._compatible(other)
        diff = self - other
        return diff.subdivide(max(2, self.degree)).canonical() == {}

    def pushforward(self, plmap):
        """Image chain under a piecewise-affine self-map of the carrier.

        Terms are refined until the map is affine on each, then vertex
        images are taken; image simplices are re-certified against the
        carrier.
        """
        if plmap.target_dim != self.complex.ambient_dim:
            raise InputError("pushforward needs a self-map of the carrier")
        return self.refine_until_affine([plmap]).vertex_images(plmap)

    def vertex_images(self, fn):
        """Replace every vertex by fn(vertex), keeping coefficients."""
        return LipschitzChain(self.complex, self.degree, self._images(fn),
                              self.level)

    def __repr__(self):
        return (f"LipschitzChain(degree={self.degree}, level={self.level}, "
                f"terms={len(self.terms)})")


def chain_from_vector(complex_, degree, vector):
    """Chain for an integer vector over the complex's degree-k simplex basis."""
    basis = complex_.chain_basis()
    if degree >= len(basis):
        if all(int(x) == 0 for x in vector):
            return LipschitzChain.zero(complex_, degree)
        raise InputError("no simplices in this degree")
    sims = basis[degree]
    if len(vector) != len(sims):
        raise InputError("vector length does not match the simplex count")
    items = []
    for c, s in zip(vector, sims):
        c = int(c)
        if c:
            items.append((c, complex_.points_of(s)))
    if not items:
        return LipschitzChain.zero(complex_, degree)
    return LipschitzChain.from_simplices(complex_, items)


def chain_to_vector(chain):
    """Inverse of chain_from_vector up to refinement, or None.

    Every basis simplex owns the pieces of its refinement, and canonical
    forms and subdivision are linear, so a simplex's coefficient is the
    weight of one of its pieces in the chain's refined canonical form: the
    first piece of each barycentric round, with its sign.  The coefficients
    are returned when their chain equals this one in the refinement limit.
    """
    complex_ = chain.complex
    basis = complex_.chain_basis()
    sims = basis[chain.degree] if chain.degree < len(basis) else []
    extra = max(2, chain.degree)
    target = chain.subdivide(extra).canonical()
    coeffs = []
    for s in sims:
        sign, piece = 1, complex_.points_of(s)
        for _ in range(chain.level + extra):
            s2, piece = barycentric_subdivide(piece)[0]
            sign *= s2
        key, s2 = canonical_orientation(piece)
        coeffs.append(sign * s2 * target.get(key, 0))
    back = chain_from_vector(complex_, chain.degree, coeffs)
    return coeffs if chain.equal_in_limit(back) else None
