"""Bundled carrier spaces, covers, and their JSON serialization.

Bundled spaces and covers are built by the builders below, by name.  Any
other space or cover loads from a JSON file: rational points are
serialized as [numerator, denominator] pairs, a space file holds
ambient_dim, vertices, simplices and optional named subcomplexes, and a
cover file holds balls described either by an explicit center or by
barycentric coordinates inside a named simplex.
"""

import json
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .complexes import BallCover, MetricComplex, PLMap
from .errors import InputError

__all__ = [
    "space_to_json", "cover_to_json", "load_space", "load_cover",
    "save_space", "save_cover",
    "circle_space", "sphere_space", "torus_space", "projective_plane_space",
    "klein_bottle_space", "disc_pair_space", "annulus_pair_space",
    "wedge_space", "builtin_spaces", "builtin_covers",
    "circle_cover_three_arcs", "circle_cover_two_arcs", "torus_cover",
    "graph_product_surface", "COMPARED",
]


def _enc_q(q):
    q = Fraction(q)
    return [q.numerator, q.denominator]


def space_to_json(complex_: MetricComplex) -> dict:
    return {
        "ambient_dim": complex_.ambient_dim,
        "vertices": [[_enc_q(x) for x in v] for v in complex_.vertices],
        "simplices": [list(s) for s in complex_.simplices],
        "subcomplexes": {name: [int(i) for i in sub]
                         for name, sub in complex_.subcomplexes.items()},
    }


def cover_to_json(cover: BallCover) -> dict:
    balls = []
    for c, r, desc in zip(cover.centers, cover.radii, cover.descriptions):
        if desc is not None:
            si, lam = desc
            balls.append({"center_simplex": si,
                          "barycentric": [_enc_q(x) for x in lam],
                          "radius": _enc_q(r)})
        else:
            balls.append({"center": [_enc_q(x) for x in c],
                          "radius": _enc_q(r)})
    return {"balls": balls}


def save_space(complex_, path):
    with open(path, "w") as fh:
        json.dump(space_to_json(complex_), fh, indent=1, sort_keys=True)
        fh.write("\n")


def save_cover(cover, path):
    with open(path, "w") as fh:
        json.dump(cover_to_json(cover), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _close_faces(top_simplices):
    """All faces of the given simplices, sorted by (dim, vertex order)."""
    out = set()
    for s in top_simplices:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            out.update(combinations(s, k))
    return sorted(out, key=lambda t: (len(t), t))


# ---- builders ----

def circle_space() -> MetricComplex:
    """Boundary of an equilateral rational triangle in R^3; every edge has
    length sqrt(2)."""
    verts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    tops = [(0, 1), (1, 2), (0, 2)]
    return MetricComplex(3, verts, _close_faces(tops))


def sphere_space() -> MetricComplex:
    """Boundary of a tetrahedron."""
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    tops = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return MetricComplex(3, verts, _close_faces(tops))


def graph_product_surface(c1: MetricComplex, c2: MetricComplex) -> MetricComplex:
    """Product of two one-dimensional complexes, squares split by staircase
    diagonals."""
    if c1.dimension() != 1 or c2.dimension() != 1:
        raise InputError("product builder expects one-dimensional factors")
    verts = []
    index = {}
    for i, p in enumerate(c1.vertices):
        for j, q in enumerate(c2.vertices):
            index[(i, j)] = len(verts)
            verts.append(tuple(p) + tuple(q))
    tops = []
    e1 = [s for s in c1.simplices if len(s) == 2]
    e2 = [s for s in c2.simplices if len(s) == 2]
    for (a, b) in e1:
        for (c, d) in e2:
            v00 = index[(a, c)]
            v10 = index[(b, c)]
            v01 = index[(a, d)]
            v11 = index[(b, d)]
            tops.append((v00, v10, v11))
            tops.append((v00, v01, v11))
    dim = c1.ambient_dim + c2.ambient_dim
    return MetricComplex(dim, verts, _close_faces(tops))


def torus_space() -> MetricComplex:
    """Product of two equilateral circles: 9 vertices, 18 flat triangles in
    R^6."""
    return graph_product_surface(circle_space(), circle_space())


def _moment_points(count):
    pts = []
    for t in range(1, count + 1):
        pts.append(tuple(Fraction(t) ** (d + 1) for d in range(5)))
    return pts


def projective_plane_space() -> MetricComplex:
    """Six-vertex projective plane on the moment curve in R^5.

    Any six points of the moment curve are affinely independent, so no face
    degenerates.
    """
    tops = [(0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
            (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5)]
    return MetricComplex(5, _moment_points(6), _close_faces(tops))


def klein_bottle_space() -> MetricComplex:
    """Eight-vertex Klein bottle on the moment curve in R^5.

    Sixteen facets of a vertex-minimal closed non-orientable surface with
    twisted first homology; every edge lies in exactly two triangles and
    every vertex link is a circle.
    """
    tops = [(0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 4),
            (1, 2, 5), (1, 3, 5), (1, 3, 6), (1, 4, 6),
            (2, 3, 6), (2, 4, 5), (2, 4, 7), (2, 6, 7),
            (3, 4, 7), (3, 5, 7), (4, 5, 6), (5, 6, 7)]
    return MetricComplex(5, _moment_points(8), _close_faces(tops))


def _sub_indices(simplices, generators):
    faces = set(_close_faces(generators))
    return [i for i, s in enumerate(simplices) if s in faces]


def disc_pair_space() -> MetricComplex:
    """Solid triangle with its boundary circle as the subcomplex."""
    verts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    sims = _close_faces([(0, 1, 2)])
    sub = _sub_indices(sims, [(0, 1), (1, 2), (0, 2)])
    return MetricComplex(3, verts, sims, {"boundary": sub})


def annulus_pair_space() -> MetricComplex:
    """Triangulated annulus between two triangles, outer circle marked."""
    verts = [(0, 0), (6, 0), (0, 6), (1, 1), (3, 1), (1, 3)]
    tops = [(0, 1, 4), (0, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5)]
    sims = _close_faces(tops)
    sub = _sub_indices(sims, [(0, 1), (1, 2), (0, 2)])
    return MetricComplex(2, verts, sims, {"outer": sub})


def wedge_space() -> MetricComplex:
    """Two triangle circles joined at one vertex."""
    verts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0), (2, 0, 1)]
    tops = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]
    return MetricComplex(3, verts, _close_faces(tops))


# ---- covers ----

def circle_cover_three_arcs(s1: MetricComplex) -> BallCover:
    """Unit balls at the three vertices: pairwise arcs, empty triple."""
    return BallCover(s1, [
        {"center_simplex": 0, "barycentric": [Fraction(1)], "radius": Fraction(1)},
        {"center_simplex": 1, "barycentric": [Fraction(1)], "radius": Fraction(1)},
        {"center_simplex": 2, "barycentric": [Fraction(1)], "radius": Fraction(1)},
    ])


def circle_cover_two_arcs(s1: MetricComplex) -> BallCover:
    """One ball at an edge midpoint, one at the opposite vertex; the overlap
    is a pair of disjoint arcs.

    The cover is bundled for `verify cosheaf`.  It is not good, so
    `compare` and `verify zigzag` on it fail the cone certificate.
    """
    edge01 = s1.simplices.index((0, 1))
    return BallCover(s1, [
        {"center_simplex": edge01,
         "barycentric": [Fraction(1, 2), Fraction(1, 2)], "radius": Fraction(1)},
        {"center_simplex": 2, "barycentric": [Fraction(1)], "radius": Fraction(1)},
    ])


def torus_cover(torus: MetricComplex) -> BallCover:
    """Balls at the nine vertices plus the nine square centers.

    Vertex radii stay below the distance 1 to non-incident triangles;
    center radii stay below sqrt(3/8) so each center ball meets the carrier
    only inside its own square.
    """
    balls = []
    for i, s in enumerate(torus.simplices):
        if len(s) == 1:
            balls.append({"center_simplex": i, "barycentric": [Fraction(1)],
                          "radius": Fraction(9, 10)})
    # square centers are the midpoints of the staircase diagonals; a
    # diagonal is an edge whose endpoints differ in both factor projections
    for i, s in enumerate(torus.simplices):
        if len(s) != 2:
            continue
        p, q = torus.points_of(s)
        if p[:3] != q[:3] and p[3:] != q[3:]:
            balls.append({"center_simplex": i,
                          "barycentric": [Fraction(1, 2), Fraction(1, 2)],
                          "radius": Fraction(3, 5)})
    return BallCover(torus, balls)


def pairing_forms(name: str, complex_: MetricComplex):
    """One (weight, differential) form pair per circle factor of a
    compared space, detecting that factor's winding.

    Both entries are hat functions of the factor's coordinates, at the
    first and the second vertex of the triangle circle; the pairing of a
    cycle with the pair equals half its winding in that factor, and
    vanishes on boundaries because the two gradients are parallel on
    every cell.
    """
    if name not in COMPARED:
        raise InputError(f"no bundled pairing forms for {name!r}")
    ring = circle_space().vertices

    def hat(a, b, v):
        return PLMap.scalar_from_vertex_values(
            complex_, 0, lambda p: 1 if p[a:b] == v else 0)

    return [(hat(a, b, ring[0]), [hat(a, b, ring[1])])
            for a, b in COMPARED[name].factors]


def random_circle_cycle(s1: MetricComplex, rng):
    """Seeded traversal of the triangle circle with random break points.

    Returns weighted current tuples forming a cycle of degree one.
    """
    ring = [s1.vertices[0], s1.vertices[1], s1.vertices[2]]
    items = []
    for i in range(3):
        a, b = ring[i], ring[(i + 1) % 3]
        cuts = sorted({Fraction(rng.randrange(1, d), d)
                       for d in (rng.choice([3, 4, 5, 7]),
                                 rng.choice([5, 6, 8, 9]))})
        stops = [Fraction(0)] + list(cuts) + [Fraction(1)]
        for s, t in zip(stops, stops[1:]):
            p = tuple(x + s * (y - x) for x, y in zip(a, b))
            q = tuple(x + t * (y - x) for x, y in zip(a, b))
            items.append((1, (p, q)))
    return items


def random_torus_cycle(torus: MetricComplex, rng):
    """Seeded factor loop of the product torus at a random level.

    The frozen factor sits at an off-lattice point of a random edge, so
    the loop crosses square diagonals; each segment is split there.
    """
    tri = circle_space()
    ring = [tri.vertices[0], tri.vertices[1], tri.vertices[2]]
    first = rng.randrange(2) == 0
    e = rng.randrange(3)
    den = rng.choice([3, 4, 5, 7, 8])
    s = Fraction(rng.randrange(1, den), den)
    a, b = ring[e], ring[(e + 1) % 3]
    level = tuple(x + s * (y - x) for x, y in zip(a, b))
    # diagonals follow the stored ascending edge orientations, so the
    # crossing parameter flips with each reversed edge
    s_stored = s if e < 2 else 1 - s

    items = []
    for i in range(3):
        u, v = ring[i], ring[(i + 1) % 3]
        if first:
            p, q = tuple(u) + level, tuple(v) + level
        else:
            p, q = level + tuple(u), level + tuple(v)
        cross = s_stored if i < 2 else 1 - s_stored
        m = tuple(x + cross * (y - x) for x, y in zip(p, q))
        items.append((1, (p, m)))
        items.append((1, (m, q)))
    return items


def random_point_cycle(complex_: MetricComplex, rng):
    """Balanced weighted points: a degree-zero cycle up to boundaries."""
    pts = complex_.sample_vertices(1)
    items = []
    for _ in range(2):
        p = pts[rng.randrange(len(pts))]
        q = pts[rng.randrange(len(pts))]
        if p == q:
            continue
        items.append((1, (p,)))
        items.append((-1, (q,)))
    return items


# ---- bundled data ----

_SPACE_BUILDERS = {
    "s1": circle_space,
    "s2": sphere_space,
    "torus": torus_space,
    "rp2": projective_plane_space,
    "klein": klein_bottle_space,
    "disc_pair": disc_pair_space,
    "annulus_pair": annulus_pair_space,
    "wedge": wedge_space,
}

_COVER_BUILDERS = {
    "s1_arcs2": circle_cover_two_arcs,
    "s1_arcs3": circle_cover_three_arcs,
    "torus_balls": torus_cover,
}

# the spaces whose degree-one comparison is bundled, each with the name of
# its cover, the coordinate blocks (start, stop) of its triangle-circle
# factors, and its seeded cycle generator
Compared = namedtuple("Compared", "cover factors cycle")
COMPARED = {
    "s1": Compared("s1_arcs3", ((0, 3),), random_circle_cycle),
    "torus": Compared("torus_balls", ((0, 3), (3, 6)), random_torus_cycle),
}


def builtin_spaces():
    return sorted(_SPACE_BUILDERS)


def builtin_covers():
    return sorted(_COVER_BUILDERS)


def load_space(name_or_path: str) -> MetricComplex:
    """Bundled space by name, or any space JSON file by path."""
    if name_or_path in _SPACE_BUILDERS:
        return _SPACE_BUILDERS[name_or_path]()
    return _load_file("space", name_or_path, builtin_spaces(),
                      lambda data: MetricComplex(
                          data["ambient_dim"], data["vertices"],
                          data["simplices"], data.get("subcomplexes")))


def load_cover(complex_: MetricComplex, name_or_path: str) -> BallCover:
    """Bundled cover of complex_ by name, or any cover JSON file by path."""
    if name_or_path in _COVER_BUILDERS:
        return _COVER_BUILDERS[name_or_path](complex_)
    return _load_file("cover", name_or_path, builtin_covers(),
                      lambda data: BallCover(complex_, data["balls"]))


def _load_file(kind, path, names, build):
    """build() on the JSON object in the file at path.  A missing file, one
    that holds no JSON object, a missing key, a value of the wrong type or
    shape (a list for a dict, text, a zero denominator or no pair for a
    number) and content that build() rejects are input errors that name
    the file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError:
        raise InputError(f"unknown {kind} {path!r}; builtin names are "
                         f"{', '.join(names)}") from None
    except ValueError as e:
        raise InputError(f"{kind} file {path!r} is not JSON: {e}") from None
    if not isinstance(data, dict):
        raise InputError(f"{kind} file {path!r} holds no JSON object")
    try:
        return build(data)
    except KeyError as e:
        raise InputError(f"{kind} file {path!r} lacks key {e}") from None
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError(f"{kind} file {path!r} is malformed: {e}") from None
    except InputError as e:
        raise InputError(f"{kind} file {path!r}: {e}") from None
