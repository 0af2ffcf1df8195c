"""Cover combinatorics and the comparison zig-zag.

Chains and currents share one tuple algebra, so the engine works on both.
One split refines a cycle until every term fits a ball of the cover and
buckets the terms by ball; one solver inverts the nerve's index-deletion
map at any arity by leading-index elimination, with support certificates.

The comparisons walk the Čech double complex of the cover (Bott-Tu §§8-9,
the tic-tac-toe lemma).  Column p holds components over nerve tuples of
arity p+1.  Down: column 0 splits a cycle, and column p solves the
index-deletion map for the boundaries of column p-1, plus (-1)^p times
the brackets of a chain's column p-1 when a current descends relative to
that chain.  The bracket inverts the point currents of the last column.
Up: column p fills the index-deletion image of column p+1 plus (-1)^p
times the chain's column p, point data by graph paths inside all balls of
the tuple and cycles at column 0 by cones to the ball centers.  Fill
matches a polyhedral cycle current by a piecewise-affine cycle chain up
to a current boundary; cancel shows that a chain cycle whose current
bounds is a chain boundary in the refinement limit.

One key format runs through the walk: a component over a nerve simplex is
keyed by the sorted tuple of its ball indices, arity one included, so a
split part in ball i sits at (i,) and a pair component at (i, j).
"""

import heapq
from bisect import insort
from collections import namedtuple
from itertools import combinations

from .bracket import bracket, bracket_inverse_points
from .chains import LipschitzChain
from .currents import PolyhedralCurrent
from .errors import GeometryError, InputError, LocalityError
from .rational import point
from .weighted import MAX_SPLIT_ROUNDS

MAX_FILL_DEPTH = 5
# The nerve's witnesses are sample vertices of this depth, and a fill starts
# there, so the first fill reads the membership table the nerve built.
SAMPLE_DEPTH = 2


class Nerve:
    """Intersection combinatorics of a ball cover, with witness points.

    A tuple of cover indices enters the nerve when a sampled carrier point
    lies strictly inside all its balls, as the cover's membership table at
    SAMPLE_DEPTH records.  Witness search is conservative; emptiness of an
    absent tuple can be certified separately.
    """

    def __init__(self, cover, max_arity=3):
        self.cover = cover
        self.witnesses = {}
        for p, inside in cover.members(SAMPLE_DEPTH).items():
            inside = sorted(inside)
            for arity in range(1, min(max_arity, len(inside)) + 1):
                for tup in combinations(inside, arity):
                    self.witnesses.setdefault(tup, p)

    def has(self, tup):
        return tuple(sorted(tup)) in self.witnesses

    def tuples(self, arity):
        return sorted(t for t in self.witnesses if len(t) == arity)


def cech_boundary(components):
    """Alternating index-deletion map from arity p+1 to arity p.

    components: dict sorted-index-tuple -> chain or current.  Applying it
    twice gives zero, and summing an image layer over all tuples of the
    lower arity telescopes to zero.
    """
    out = {}
    for B, val in components.items():
        for j in range(len(B)):
            A = B[:j] + B[j + 1:]
            term = val if j % 2 == 0 else -val
            if A in out:
                out[A] = out[A] + term
            else:
                out[A] = term
    return out


def _merge(first, second, sign):
    """first[K] + sign * second[K] for every key of either, in sorted key
    order; a key on one side only keeps that side's term."""
    out = {}
    for K in sorted(set(first) | set(second)):
        val = first.get(K)
        if K in second:
            if sign > 0:
                val = second[K] if val is None else val + second[K]
            else:
                val = -second[K] if val is None else val - second[K]
        out[K] = val
    return out


def augment(components, zero):
    """Sum of the single-ball components (the global object), from zero.

    zero is the zero of the components' kind (x.scale(0) for an x of that
    kind), so an empty dict sums to it.
    """
    total = zero
    for A in sorted(components):
        total = total + components[A]
    return total


def augment_nerve(components):
    """Total multiplicity of each degree-zero component, as a nerve chain.

    components: dict sorted-tuple (module docstring) -> degree-zero chain
    or current.  Returns dict sorted-tuple -> int with zero entries dropped.
    """
    return {tup: w for tup, val in components.items()
            if (w := sum(val.terms.values()))}


# ---- support-certified splitting and elimination ----

def conforming(T, complex_) -> bool:
    """True when every term sits inside a single complex simplex.

    Pieces may legally straddle flat cells as currents, but the zig-zag
    cone fills need the conforming representation.
    """
    return all(complex_.find_containing_simplex(tup) is not None
               for tup in T.terms)


def split(x, cover, balls=None, context=""):
    """Refine until every term fits one of the balls, then bucket the terms.

    Each term goes to the first of the balls (all of the cover's, in order,
    by default) whose open ball holds it strictly.  A round stops at the
    first term with no home and refines the whole chain or current.
    Returns a dict (i,) -> part in ball i, keyed as the module docstring
    says; the parts sum to a refinement of x.
    """
    if balls is None:
        balls = range(len(cover))
    work = x
    for _ in range(MAX_SPLIT_ROUNDS + 1):
        buckets = {}
        for tup, w in work.terms.items():
            home = cover.first_ball_containing(tup, balls)
            if home is None:
                break
            buckets.setdefault((home,), {})[tup] = w
        else:
            return {b: work.like(work.degree, t) for b, t in buckets.items()}
        if work.degree == 0:
            raise GeometryError(
                f"point {tup[0]} lies in no admissible ball {context}")
        work = work.subdivide()
    raise GeometryError(f"terms never fit admissible balls {context}")


def solve_phi(Y, nerve, context=""):
    """W one nerve arity up with cech_boundary(W) = Y, by elimination.

    Y maps sorted ball-index tuples of one arity p (module docstring) to
    chains or currents of one degree; it must lie in the image, so for
    p = 1 the components sum to zero (as chains exactly, as currents after
    reduction).  Keys are visited in sorted order, including those
    elimination creates.  A residual at K with terms is reduced once, and
    what is left, if anything, is split over the balls g > K[-1] with
    K + (g,) in the nerve; the part at (g,) becomes, up to sign, the
    component at B = K + (g,), and the other faces of B take up its
    boundary.  Those faces are larger than K, so a residual is final when
    it is visited and leaves the residuals then; a contribution arriving
    after that is an error.
    Every part is certified inside all the balls of K.
    """
    cover = nerve.cover
    residual = dict(Y)
    todo = sorted(residual)
    queued = set(todo)
    W = {}
    while todo:
        K = heapq.heappop(todo)
        R = residual.pop(K)
        if R.terms:
            R = R.reduce()
        if not R.terms:
            continue
        allowed = [g for g in range(K[-1] + 1, len(cover))
                   if nerve.has(K + (g,))]
        if not allowed:
            raise GeometryError(
                f"{K} has a nonzero residual but no overlap one arity up "
                f"{context}")
        parts = split(R, cover, allowed,
                      context=f"(descending {K}) {context}")
        p = len(K)
        for g, part in parts.items():
            for i in K:
                if not all(cover.simplex_inside(i, tup) for tup in part.terms):
                    raise GeometryError(
                        f"support certificate failed: a term leaves ball {i}")
            # deleting index j of B has sign (-1)^j; j = p gives K
            B = K + g
            term = -part if p % 2 else part
            W[B] = W[B] + term if B in W else term
            for j in reversed(range(p)):
                F = B[:j] + B[j + 1:]
                face = part if (j + p) % 2 else -part
                residual[F] = residual[F] + face if F in residual else face
                if F not in queued:
                    queued.add(F)
                    heapq.heappush(todo, F)
    if residual:
        raise GeometryError(f"elimination left a nonzero residual at "
                            f"{min(residual)} {context}")
    return W


# ---- local fills ----

def fill_zero_chain(complex_, chain, region, start_depth=SAMPLE_DEPTH,
                    context=""):
    """One-chain inside a region with boundary equal to the given 0-chain.

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
        node_weight = {num[p]: c for p, c in weights.items()}
        # one sorted traversal from the first node of each component records
        # its spanning tree, until every weighted node is in a tree; the
        # first unbalanced component ends this depth
        parent = {}
        unreached = len(node_weight)
        for root in (num[v] for v in nodes):
            if root in parent:
                continue
            parent[root] = None
            total = node_weight.get(root, 0)
            unreached -= root in node_weight
            stack = [root]
            while stack and unreached:
                x = stack.pop()
                near = set()
                for j in complex_.tops_holding(order[x]):
                    near.update(by_top[j])
                for y in sorted(near):
                    if y not in parent:
                        parent[y] = x
                        if y in node_weight:
                            total += node_weight[y]
                            unreached -= 1
                        stack.append(y)
            if total != 0:
                last_err = (f"component of {order[root]} carries net weight "
                            f"{total}")
                break
            if not unreached:
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


def _certify_cone(x, apex, complex_, context):
    for tup in x.terms:
        if complex_.find_containing_simplex(tup + (point(apex),)) is None:
            raise GeometryError(
                f"cone certificate failed {context}: no simplex holds "
                f"{tup} and the apex")


def cone_fill_chain(z, apex, complex_, context=""):
    """Cone a cycle chain to a point, certifying every coned term."""
    if not z.boundary().is_zero():
        raise InputError(f"cone fill needs an exact cycle {context}")
    _certify_cone(z, apex, complex_, context)
    return z.cone(apex)


def cone_fill_current(R, apex, complex_, context=""):
    """Cone a cycle current to a point, certifying every coned piece."""
    _certify_cone(R, apex, complex_, context)
    return R.cone(apex)


def _cone_in_ball(cone_fill, x, cover, i, context):
    """cone_fill of x to the center of ball i.  When its certificate fails
    and ball i meets a top simplex that does not hold its center, the
    cover is at fault, not the walk, so the error is an InputError naming
    the ball and those simplices."""
    try:
        return cone_fill(x, cover.centers[i], cover.complex, context=context)
    except GeometryError:
        far = cover.tops_missing_center(i)
        if not far:
            raise
        raise InputError(
            f"cone to the center of ball {i} failed {context}: the ball "
            f"meets top simplices {', '.join(map(str, far))}, which do not "
            "hold its center") from None


# ---- the walk through the double complex ----

def _check_input(x, cover, name, degrees, cycle=True):
    """The input check every entry of the walk shares; returns x's degree.

    x needs one of the degrees, a zero boundary unless cycle is False, and,
    as a current, the conforming representation the cones need.
    """
    if x.degree not in degrees:
        raise InputError(f"{name} implemented in degree "
                         f"{', '.join(map(str, degrees))}, not {x.degree}")
    if cycle and not x.boundary().is_zero():
        raise InputError(f"{name} needs a cycle")
    if isinstance(x, PolyhedralCurrent) and not conforming(x, cover.complex):
        raise InputError(
            f"{name} needs a conforming representation: every piece "
            "inside a single complex simplex")
    return x.degree


def _descend(x, cover, nerve, contexts, lower=()):
    """Columns 0..degree of a cycle's descent; see the module docstring.

    contexts labels the solve of each column p >= 1; lower holds the
    columns of a descended chain whose brackets enter with sign (-1)^p.
    """
    columns = [split(x, cover)]
    for p in range(1, x.degree + 1):
        Y = {K: comp.boundary() for K, comp in columns[-1].items()}
        if p <= len(lower):
            Y = _merge(Y, {K: bracket(c) for K, c in lower[p - 1].items()},
                       (-1) ** p)
        columns.append(solve_phi(Y, nerve, context=contexts[p - 1]))
    return columns


def _ascend(columns, lower, cover, name):
    """Chain column 0 of the climb from the point currents of the last of
    the descended columns.

    See the module docstring; name labels the local fills.
    """
    complex_ = cover.complex
    col = {K: bracket_inverse_points(cur, complex_)
           for K, cur in columns[-1].items()}
    for p in reversed(range(len(columns) - 1)):
        img = _merge(cech_boundary(col), lower[p] if p < len(lower) else {},
                     (-1) ** p)
        col = {}
        for K, val in img.items():
            if val.is_zero():
                continue
            context = f"({name}, over {K})"
            if val.degree == 0:
                col[K] = fill_zero_chain(complex_, val, (cover, K),
                                         context=context)
            else:
                # cycles reach here only at column 0: cones inside ball
                # intersections, which degree two needs, are not built yet
                col[K] = _cone_in_ball(cone_fill_chain, val, cover, K[0],
                                       context)
    return col


def zigzag_descend(c, cover, nerve=None):
    """The integer nerve cycle of a global cycle c of degree m.

    The descent of the module docstring, down to column m's degree-zero
    coefficients over tuples of arity m+1, whose total multiplicities form
    the returned cycle on the nerve (augment_nerve).  Implemented for
    degrees 0..2.  Certifies that column 0 sums back to c and that each
    column p >= 1 maps onto column p-1's boundaries.
    """
    m = _check_input(c, cover, "descent", range(3))
    if nerve is None:
        nerve = Nerve(cover, max_arity=m + 1)

    columns = _descend(c, cover, nerve, ("(descent)",) * m)

    if not augment(columns[0], c.scale(0)).equals(c):
        raise GeometryError("descent components do not sum back")
    for p in range(1, m + 1):
        want = {K: comp.boundary() for K, comp in columns[p - 1].items()}
        for K, gap in _merge(cech_boundary(columns[p]), want, -1).items():
            if not gap.is_zero():
                raise GeometryError(f"descent step {p} mismatched at {K!r}")
    return augment_nerve(columns[m])


# ---- fill and cancel ----

# Outcome of matching a cycle current by a cycle chain.
FillResult = namedtuple("FillResult", "chain filling")


def zigzag_fill(T, cover, nerve=None):
    """Cycle current T of degree m -> cycle chain c and current S of degree
    m+1 with boundary(S) = [c] - T, all certificates exact.

    The walk of the module docstring descends T to point currents over
    nerve tuples of arity m+1 and climbs back to a chain in each ball; the
    local defects [c] - T, which are cycles, are coned to the ball centers.
    Implemented in degree one (ROADMAP item 3 lifts the guard).
    """
    complex_ = cover.complex
    m = _check_input(T, cover, "fill", (1,))
    if nerve is None:
        nerve = Nerve(cover, max_arity=m + 1)

    columns = _descend(T, cover, nerve, ("(fill)",) * m)
    c_parts = _ascend(columns, (), cover, "fill")

    defects = _merge({A: bracket(ch) for A, ch in c_parts.items()},
                     columns[0], -1)
    S_parts = {A: _cone_in_ball(cone_fill_current, R, cover, A[0],
                                f"(fill, over {A})")
               for A, R in defects.items() if R.terms}

    c = augment(c_parts, LipschitzChain.zero(complex_, m))
    S = augment(S_parts, PolyhedralCurrent.zero(T.ambient_dim, m + 1))
    if not c.boundary().is_zero():
        raise GeometryError("fill produced a non-cycle chain")
    if not S.boundary().equals(bracket(c) - T):
        raise GeometryError("fill verification failed: boundary mismatch")
    return FillResult(c, S)


def zigzag_cancel(z, S, cover, nerve=None):
    """Cycle chain z of degree m with boundary(S) = [z] -> chain w of
    degree m+1 with b(w) = z after refinement.

    The walk of the module docstring descends z, then S relative to z's
    columns down to point currents over nerve tuples of arity m+2, and
    climbs back: paths inside the intersections of m+1 balls, then cones
    to the ball centers.  Implemented in degree one (ROADMAP item 3 lifts
    the guard).
    """
    m = _check_input(z, cover, "cancel", (1,))
    _check_input(S, cover, "cancel", (m + 1,), cycle=False)
    if not S.boundary().equals(bracket(z)):
        raise InputError("cancel needs boundary(S) = [z]")
    if nerve is None:
        nerve = Nerve(cover, max_arity=m + 2)

    zc = _descend(z, cover, nerve, ("(cancel, chain)",) * m)
    Sc = _descend(S, cover, nerve,
                  ("(cancel, current)",) * m + ("(cancel, triples)",),
                  lower=zc)
    w = augment(_ascend(Sc, zc, cover, "cancel"),
                LipschitzChain.zero(cover.complex, m + 1))
    if not (w.boundary() == z):
        raise GeometryError("cancel verification failed: b(w) != z")
    return w
