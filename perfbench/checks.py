"""Output checks computed apart from mhom.

The zig-zag checks read a chain as a dict from point pairs to integer
coefficients; the homology checks read integer vectors over the sorted
simplex basis of an `inputs.Complex`.  Each check returns None when the
output is right and a one-line reason when it is not.
"""

from fractions import Fraction

HALF_TURN = Fraction(3, 2)  # the circle parameter runs over [0, 3)


# ---- degree-one chains on the triangle circle and its products ----

def point_boundary(segments):
    """Endpoint multiset of a weighted segment chain, zeros dropped."""
    acc = {}
    for (p, q), c in segments.items():
        acc[q] = acc.get(q, 0) + c
        acc[p] = acc.get(p, 0) - c
    return {p: c for p, c in acc.items() if c}


def circle_parameter(x):
    """Position of a point of the triangle circle as a parameter in
    [0, 3): 0, 1, 2 at the three vertices, linear along each edge.  None
    when x is off the circle."""
    if len(x) != 3 or any(v < 0 for v in x) or sum(x) != 1:
        return None
    if x[2] == 0:
        return x[1]
    if x[0] == 0:
        return 1 + x[2]
    if x[1] == 0:
        return 2 + x[0]
    return None


def windings(segments, factors):
    """Winding number of a segment chain about each circle factor.

    `factors` lists the coordinate offsets of the factors (three
    coordinates each).  Every segment must project, in each factor, into
    one edge of the circle; otherwise None.
    """
    out = []
    for off in factors:
        total = Fraction(0)
        for (p, q), c in segments.items():
            a, b = p[off:off + 3], q[off:off + 3]
            ta, tb = circle_parameter(a), circle_parameter(b)
            if ta is None or tb is None:
                return None
            if not any(u == 0 and v == 0 for u, v in zip(a, b)):
                return None  # a chord across the circle
            d = tb - ta
            if d >= HALF_TURN:
                d -= 3
            elif d < -HALF_TURN:
                d += 3
            total += c * d
        if total.denominator != 1 or total.numerator % 3:
            return None
        out.append(total.numerator // 3)
    return tuple(out)


def check_loop_chain(segments, factors, expected):
    """The matched chain must be a cycle winding like the input loop."""
    if not segments:
        return "the matched chain is empty"
    if any(len(t) != 2 for t in segments):
        return "the matched chain has a term that is not a segment"
    rest = point_boundary(segments)
    if rest:
        return f"the matched chain is not a cycle: {len(rest)} loose endpoints"
    got = windings(segments, factors)
    if got != tuple(expected):
        return f"windings {got}, expected {tuple(expected)}"
    return None


def halve(segments, times):
    """Each segment cut into 2**times equal pieces, the chain's barycentric
    refinement `times` rounds deeper."""
    for _ in range(times):
        out = {}
        for (p, q), c in segments.items():
            m = tuple((u + v) / 2 for u, v in zip(p, q))
            for piece in ((p, m), (m, q)):
                out[piece] = out.get(piece, 0) + c
        segments = out
    return segments


def as_current(segments):
    """Segments oriented from the smaller end point, opposite copies
    merged and degenerate ones dropped: equal chains of a common level
    give equal currents."""
    out = {}
    for (p, q), c in segments.items():
        if p == q:
            continue
        key, sign = ((p, q), c) if p < q else ((q, p), -c)
        out[key] = out.get(key, 0) + sign
    return {k: c for k, c in out.items() if c}


def check_cancel(items, chain, chain_level, filling, filling_level):
    """The chain `zigzag_cancel` returns must bound the matched chain
    minus the input loop: sum over its triangles (p, q, r) of
    (q, r) - (p, r) + (p, q), against both refined to a common level."""
    if any(len(t) != 3 for t in filling):
        return "the cancelling chain has a term that is not a triangle"
    level = max(chain_level, filling_level)
    loop = {}
    for c, tup in items:
        loop[tup] = loop.get(tup, 0) + c
    diff = dict(halve(chain, level - chain_level))
    for seg, c in halve(loop, level).items():
        diff[seg] = diff.get(seg, 0) - c
    edges = {}
    for (p, q, r), c in filling.items():
        for e, s in (((q, r), c), ((p, r), -c), ((p, q), c)):
            edges[e] = edges.get(e, 0) + s
    if as_current(halve(edges, level - filling_level)) != as_current(diff):
        return "the cancelling chain does not bound matched minus input"
    return None


# ---- integral homology of the product and Klein complexes ----

def boundary_vector(cx, k, vec):
    """Simplicial boundary of a degree-k vector over cx.basis(k)."""
    if k == 0:
        return []
    pos = {t: i for i, t in enumerate(cx.basis(k - 1))}
    out = [0] * len(pos)
    for t, c in zip(cx.basis(k), vec):
        if c:
            for d in range(len(t)):
                out[pos[t[:d] + t[d + 1:]]] += c if d % 2 == 0 else -c
    return out


def check_group(k, group, expected):
    betti, torsion = expected
    got = (group.betti, tuple(group.torsion))
    if got != (betti, tuple(torsion)):
        return f"H{k} is {got}, expected {(betti, tuple(torsion))}"
    return None


def check_generators(cx, k, gens, expected):
    betti, torsion = expected
    if len(gens) != betti + len(torsion):
        return f"H{k} has {len(gens)} generators, expected {betti + len(torsion)}"
    n = len(cx.basis(k))
    for g in gens:
        if len(g) != n or any(boundary_vector(cx, k, g)):
            return f"an H{k} generator is not a cycle"
    return None


def query_cycle(cx, k, gens, a, b):
    """Sum of a_i * gens[i] plus the boundary of b."""
    vec = [0] * len(cx.basis(k))
    for ai, g in zip(a, gens):
        for i, v in enumerate(g):
            vec[i] += ai * v
    if b:
        for i, v in enumerate(boundary_vector(cx, k + 1, b)):
            vec[i] += v
    return vec


def expected_coordinates(a, expected):
    """Class coordinates of sum a_i g_i: free ones as given, torsion ones
    reduced mod their order."""
    betti, torsion = expected
    return list(a[:betti]) + [x % d for x, d in zip(a[betti:], torsion)]


def check_coordinates(k, got, a, expected):
    want = expected_coordinates(a, expected)
    if list(got) != want:
        return f"H{k} class coordinates {list(got)}, expected {want}"
    return None
