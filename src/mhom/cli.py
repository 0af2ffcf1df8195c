"""Command line interface.

Subcommands: ``homology`` computes groups of a bundled or on-disk space
(absolute or relative to a named subcomplex) in the singular, lipschitz,
or current theory; ``compare`` emits generator pairing certificates,
seeded zig-zag witnesses, and, for pairs, commuting long-exact-sequence
checks; ``verify`` drives a named invariant suite and exits nonzero when
any check fails.  Reports are JSON with sorted keys, byte-identical for a
fixed seed.  Exit status: 0 all checks pass, 1 failed check or failed
geometric verification, 2 bad input or usage.
"""

import argparse
import json
import random
import sys
from fractions import Fraction
from itertools import combinations

from . import cech, spaces
from .bracket import (bracket, bracket_inverse_points, brackets_of_generators,
                      pairing_matrix)
from .chaincomplex import (connecting_homomorphism, exact_at, homology_data,
                           hom_matrix_columns)
from .chains import LipschitzChain, chain_from_vector, chain_to_vector
from .complexes import PLMap, check_simplices, mcshane_extension
from .currents import PolyhedralCurrent
from .errors import GeometryError, InputError, MhomError
from .geometry import det_fraction
from .intlinalg import IntMatrix, smith_normal_form
from .rational import dist2

THEORIES = ("singular", "lipschitz", "current")


def _check_counts(args):
    """--budget and --depth take nonnegative integers."""
    for flag, value in (("--budget", args.budget), ("--depth", args.depth)):
        if value < 0:
            raise InputError(f"{flag} must be nonnegative, got {value}")


def _emit(payload, out):
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _frac_str(x):
    return str(Fraction(x))


def _check(name, ok, **detail):
    """One verify check: its name, pass or fail, and any detail fields."""
    return {"check": name, "status": "pass" if ok else "fail", **detail}


def _resolve(args, cover_needed=True):
    """(space name, complex, cover name, cover, nerve) for a command.

    The space is --space, s1 when none is given.  The cover is --cover,
    else the one spaces.COMPARED bundles for the space; a name that is
    no bundled cover is tried with the space's prefix (arcs2 on s1 is
    s1_arcs2) before it is read as a file.  The nerve is Nerve(cover,
    max_arity=3).  The last three are None when cover_needed is False, or
    when it is None and no cover is named or bundled; with cover_needed
    True that is an input error.
    """
    space = args.space or "s1"
    complex_ = spaces.load_space(space)
    compared = spaces.COMPARED.get(space)
    name = args.cover or compared and compared.cover
    if cover_needed is False or name is None and cover_needed is None:
        return space, complex_, None, None, None
    if name is None:
        raise InputError(f"no bundled cover for {space!r}; pass --cover")
    builtin = spaces.builtin_covers()
    if name not in builtin and f"{space}_{name}" in builtin:
        name = f"{space}_{name}"
    cover = spaces.load_cover(complex_, name)
    return space, complex_, name, cover, cech.Nerve(cover, max_arity=3)


# ---- homology ----

def _generator_summary(complex_, k, data, theory):
    gens = []
    for vec in data.generators():
        if theory == "singular":
            gens.append({"coordinates": list(vec)})
        elif theory == "lipschitz":
            ch = chain_from_vector(complex_, k, vec)
            gens.append({"terms": len(ch.terms), "level": ch.level})
        else:
            ch = chain_from_vector(complex_, k, vec)
            cur = bracket(ch)
            gens.append({"pieces": len(cur.pieces),
                         "mass": cur.mass_float()})
    return gens


def cmd_homology(args):
    complex_ = spaces.load_space(args.space)
    if args.pair:
        pair = complex_.relative_pair(args.pair)
        C = pair.quotient_complex
    else:
        C, _ = complex_.chain_complex()
    top = len(C.dims) - 1
    if args.degree is not None:
        if not 0 <= args.degree <= top:
            raise InputError(f"degree {args.degree} outside 0..{top}")
        degrees = [args.degree]
    else:
        degrees = list(range(top + 1))

    groups = {}
    generators = {}
    for k in degrees:
        data = homology_data(C, k)
        groups[f"H{k}"] = str(data.group)
        if not args.pair:
            generators[f"H{k}"] = _generator_summary(
                complex_, k, data, args.theory)
    payload = {
        "command": "homology",
        "space": args.space,
        "pair": args.pair,
        "theory": args.theory,
        "groups": groups,
    }
    if not args.pair:
        payload["generators"] = generators
        if args.theory == "current" and args.space in spaces.COMPARED:
            payload["pairing"] = _pairing_certificate(args.space, complex_)
    _emit(payload, args.out)
    return 0


def _pairing_certificate(space_name, complex_):
    """Winding matrix of the bracketed degree-one generators."""
    C, _ = complex_.chain_complex()
    data = homology_data(C, 1)
    gens = brackets_of_generators(complex_, 1, data)
    forms = spaces.pairing_forms(space_name, complex_)
    M = pairing_matrix(gens, forms)
    W = [[2 * x for x in row] for row in M]
    det = det_fraction(W)
    return {
        "matrix": [[_frac_str(x) for x in row] for row in W],
        "determinant": _frac_str(det),
        "nonsingular": det != 0,
        "unimodular": abs(det) == 1,
    }


# ---- compare ----

def _compare_cycle(space_name, complex_, degree, rng):
    if degree == 0:
        return spaces.random_point_cycle(complex_, rng)
    if space_name not in spaces.COMPARED:
        raise InputError(
            f"compare in degree {degree} is bundled for "
            f"{' and '.join(spaces.COMPARED)}; got {space_name!r}")
    return spaces.COMPARED[space_name].cycle(complex_, rng)


def _iota_identification(complex_, degree):
    """Simplicial generators realized as affine chains and read back."""
    C, _ = complex_.chain_complex()
    data = homology_data(C, degree)
    out = []
    for vec in data.generators():
        ch = chain_from_vector(complex_, degree, vec)
        back = chain_to_vector(ch)
        out.append({
            "coordinates": list(vec),
            "affine_terms": len(ch.terms),
            "identified": back == list(vec),
        })
    return out


def _pair_les_checks(complex_, name):
    pair = complex_.relative_pair(name)
    A, X = pair.sub_complex, pair.total
    checks = []
    ha1, hx1 = homology_data(A, 0), homology_data(X, 0)
    for k in range(1, len(X.dims)):
        ha, hx = homology_data(A, k), homology_data(X, k)
        conn, hq, _ = connecting_homomorphism(pair, k, ha1)
        incl = hom_matrix_columns(ha, hx, lambda v: pair.include_vector(k, v))
        proj = hom_matrix_columns(hx, hq, lambda v: pair.project_vector(k, v))
        incl1 = hom_matrix_columns(ha1, hx1,
                                   lambda v: pair.include_vector(k - 1, v))
        ok = (exact_at(incl, ha.moduli, hx.moduli, proj, hq.moduli)
              and exact_at(proj, hx.moduli, hq.moduli, conn, ha1.moduli)
              and exact_at(conn, hq.moduli, ha1.moduli, incl1, hx1.moduli))
        checks.append({"degree": k, "exact": ok})
        ha1, hx1 = ha, hx
    return checks


def _zigzag_step(complex_, items, cover, nerve):
    """One seeded zig-zag: the cycle's tuples as a current T, its fill by a
    chain c, and the cancel of z = c - (the tuples as a chain).

    Returns (T, fill result, w); both steps verify their certificates and
    raise on a failure.
    """
    T = PolyhedralCurrent.from_tuples(complex_.ambient_dim, items, degree=1)
    res = cech.zigzag_fill(T, cover, nerve=nerve)
    z = res.chain - LipschitzChain.from_simplices(complex_, items)
    return T, res, cech.zigzag_cancel(z, res.filling, cover, nerve=nerve)


def cmd_compare(args):
    _check_counts(args)
    if args.degree not in (0, 1):
        raise InputError("compare runs in degrees 0 and 1")
    _, complex_, cover_name, cover, nerve = _resolve(args, args.degree >= 1)
    rng = random.Random(args.seed)

    payload = {
        "command": "compare",
        "space": args.space,
        "degree": args.degree,
        "seed": args.seed,
        "budget": args.budget,
        "depth": args.depth,
        "status": "ok",
    }

    if args.pair:
        payload["pair"] = args.pair
        payload["les"] = _pair_les_checks(complex_, args.pair)

    if args.degree >= 1:
        payload["pairing"] = _pairing_certificate(args.space, complex_)
    payload["cover"] = cover_name
    payload["iota"] = _iota_identification(complex_, args.degree)

    runs = []
    for i in range(args.budget):
        items = _compare_cycle(args.space, complex_, args.degree, rng)
        if args.degree == 0:
            # two equal draws leave no points: the zero 0-chain
            z = (LipschitzChain.from_simplices(complex_, items) if items
                 else LipschitzChain.zero(complex_, 0))
            T = bracket(z)
            back = bracket_inverse_points(T, complex_)
            if not (back == z):
                raise GeometryError("degree-zero roundtrip failed")
            w = cech.fill_zero_chain(complex_, z, None,
                                     start_depth=max(1, args.depth - 2),
                                     context="(global)")
            if not (w.boundary() == z):
                raise GeometryError("degree-zero filling failed")
            runs.append({
                "run": i,
                "cycle_points": len(z.terms),
                "roundtrip": "exact",
                "filling_terms": len(w.terms),
                "boundary_identity": "exact",
            })
            continue

        T, res, w = _zigzag_step(complex_, items, cover, nerve)
        runs.append({
            "run": i,
            "cycle_pieces": len(T.pieces),
            "matched_terms": len(res.chain.terms),
            "filling_pieces": len(res.filling.pieces),
            "fill_identity": "exact",
            "cancel_terms": len(w.terms),
            "cancel_identity": "exact",
        })
    payload["runs"] = runs
    _emit(payload, args.out)
    return 0


# ---- verify suites ----

def _suite_snf(args, rng):
    checks = []
    for i in range(args.budget):
        nr = rng.randrange(1, 5)
        nc = rng.randrange(1, 5)
        M = IntMatrix.from_rows(
            [[rng.randrange(-6, 7) for _ in range(nc)] for _ in range(nr)])
        U, D, V, U_inv, V_inv = smith_normal_form(M)
        ok = (U * M * V == D and U * U_inv == IntMatrix.identity(nr)
              and V * V_inv == IntMatrix.identity(nc))
        diag = [D.get(j, j) for j in range(min(nr, nc))]
        for a, b in zip(diag, diag[1:]):
            if b and (a == 0 or b % a):
                ok = False
        checks.append(_check(f"snf[{i}]", ok))
        if not ok:
            checks[-1]["counterexample"] = M.to_rows()
    return checks


def _random_chain(complex_, degree, rng):
    basis = complex_.chain_basis().get(degree, [])
    if not basis:
        return LipschitzChain.zero(complex_, degree)
    vec = [rng.randrange(-3, 4) for _ in basis]
    ch = chain_from_vector(complex_, degree, vec)
    if rng.randrange(2):
        ch = ch.subdivide()
    return ch


def _suite_stokes(args, rng):
    checks = []
    names = ["s1", "s2", "torus"]
    cxs = {n: spaces.load_space(n) for n in names}
    for i in range(args.budget):
        name = names[i % len(names)]
        complex_ = cxs[name]
        top = complex_.dimension()
        k = 1 + (i % max(1, top))
        ch = _random_chain(complex_, k, rng)
        lhs = bracket(ch).boundary()
        rhs = bracket(ch.boundary())
        ok = lhs.equals(rhs)
        ok = ok and ch.boundary().boundary().is_zero()
        ok = ok and bracket(ch).boundary().boundary().is_zero()
        checks.append(_check(f"stokes[{i}]:{name}:H{k}", ok))
    return checks


def _suite_green(args, rng):
    sq = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
          (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))]
    T = PolyhedralCurrent.from_tuples(
        2, [(1, (sq[0], sq[1], sq[2])), (1, (sq[0], sq[2], sq[3]))])
    x = PLMap.coordinate(2, 0)
    y = PLMap.coordinate(2, 1)
    val = T.boundary().evaluate(y, [x])
    const = PLMap.constant((Fraction(1, 2),))
    loc = T.boundary().evaluate(y, [const])
    return [_check("green:value", val == -1, detail=_frac_str(val)),
            _check("green:locality", loc == 0)]


def _random_current(rng, degree):
    items = []
    for _ in range(2):
        tup = tuple(tuple(Fraction(rng.randrange(-8, 9), rng.choice([1, 2, 4]))
                          for _ in range(3))
                    for _ in range(degree + 1))
        items.append((rng.choice([-2, -1, 1, 2]), tup))
    return PolyhedralCurrent.from_tuples(3, items, degree=degree)


def _suite_prism(args, rng):
    checks = []
    for i in range(args.budget):
        k = i % 3
        T = _random_current(rng, k)
        P = T.product_interval()
        lhs = P.boundary()
        rhs = T.embed_at_height(1) - T.embed_at_height(0)
        if k >= 1:
            rhs = rhs - T.boundary().product_interval()
        ok = lhs.equals(rhs)
        checks.append(_check(f"prism[{i}]:deg{k}", ok))
        if k >= 1:
            Z = _random_current(rng, k)
            cyc = Z.boundary()
            apex = tuple(Fraction(rng.randrange(-3, 4)) for _ in range(3))
            cone = cyc.cone(apex)
            ok2 = cone.boundary().equals(cyc)
            base = [p for tup in cyc.pieces for p in tup] + [apex]
            spt = [p for tup in cone.pieces for p in tup]
            dbase = max((dist2(p, q) for p in base for q in base), default=0)
            dspt = max((dist2(p, q) for p in spt for q in spt), default=0)
            ok2 = ok2 and dspt <= dbase
            checks.append(_check(f"cone[{i}]:deg{k - 1}", ok2))
    return checks


def _suite_mass(args, rng):
    checks = []
    for i in range(args.budget):
        k = 1 + (i % 2)
        T = _random_current(rng, k)
        S = _random_current(rng, k)
        sub = (S + T).mass() <= S.mass() + T.mass()
        d = [Fraction(rng.randrange(1, 4)), Fraction(rng.randrange(1, 4)),
             Fraction(rng.randrange(1, 4))]
        phi = PLMap.affine([[d[0], 0, 0], [0, d[1], 0], [0, 0, d[2]]])
        lip = max(d)
        push = T.pushforward(phi)
        ok = sub and push.mass() <= T.mass().scale(lip ** k)
        checks.append(_check(f"mass[{i}]:deg{k}", ok))
    return checks


def _suite_degree0(args, rng):
    checks = []
    names = spaces.builtin_spaces()
    for i in range(args.budget):
        complex_ = spaces.load_space(names[i % len(names)])
        items = spaces.random_point_cycle(complex_, rng)
        ok = True
        if items:
            z = LipschitzChain.from_simplices(complex_, items)
            ok = bracket_inverse_points(bracket(z), complex_) == z
        checks.append(_check(f"degree0[{i}]", ok))
    return checks


def _suite_mcshane(args, rng):
    complex_ = spaces.load_space(args.space or "s2")
    verts = complex_.sample_vertices(1)
    checks = []
    for i in range(args.budget):
        L = Fraction(rng.randrange(2, 9))
        slope = Fraction(rng.randrange(-L.numerator, L.numerator + 1))
        anchors = sorted({verts[rng.randrange(len(verts))]
                          for _ in range(rng.randrange(2, 5))})
        data = [(p, slope * p[0]) for p in anchors]
        ext = mcshane_extension(complex_, data, L, depth=1)
        ok = all(ext.scalar(p) == v for p, v in data)
        pts = [verts[rng.randrange(len(verts))] for _ in range(8)]
        for p in pts:
            for q in pts:
                df = ext.scalar(p) - ext.scalar(q)
                if df * df > L * L * dist2(p, q):
                    ok = False
        checks.append(_check(f"mcshane[{i}]", ok))
    return checks


def _overlap_kernel(complex_, cover, nerve, deg, index=0):
    """Kernel element of the augmentation inside one pairwise overlap."""
    pairs = nerve.tuples(2)
    if not pairs:
        return None
    table = cover.members(3)
    for k in range(len(pairs)):
        pair = pairs[(index + k) % len(pairs)]
        A, B = pair[:1], pair[1:]
        inside = [p for p, held in table.items() if held.issuperset(pair)]
        if deg == 0:
            if inside:
                p = inside[index % len(inside)]
                x = LipschitzChain(complex_, 0, {(p,): 1}, 0)
                return {A: x, B: -x}
            continue
        edges = [e for e in combinations(inside, 2)
                 if complex_.find_containing_simplex(e) is not None]
        if edges:
            u, v = edges[index % len(edges)]
            x = LipschitzChain(complex_, 1, {(u, v): 1}, 0)
            return {A: x, B: -x}
    return None


def _suite_cosheaf(args, rng):
    _, complex_, _, cover, nerve = _resolve(args)
    checks = []
    for i in range(args.budget):
        deg = i % 2
        ch = _random_chain(complex_, deg, rng)
        parts = cech.split(ch, cover)
        ok = (cech.augment(parts, ch.scale(0)) - ch).is_zero()
        checks.append(_check(f"eps-chain[{i}]:deg{deg}", ok))

        cur = bracket(ch)
        if cur.terms:
            cparts = cech.split(cur, cover)
            ok = cech.augment(cparts, cur.scale(0)).equals(cur)
            checks.append(_check(f"eps-current[{i}]:deg{deg}", ok))

        # kernel of the augmentation is hit by the facet map: start from
        # a guaranteed overlap-supported element, and fold in the per-ball
        # difference of two bucketings of the refined chain, each term to
        # its first and to its last containing ball
        ker = _overlap_kernel(complex_, cover, nerve, deg, index=i)
        if ker is None:
            continue
        last = cech.split(ch, cover, range(len(cover) - 1, -1, -1))
        for A, p in parts.items():
            ker[A] = ker[A] + p if A in ker else p
        for A, p in last.items():
            ker[A] = ker[A] - p if A in ker else -p
        ker = {A: k for A, k in ker.items() if not k.is_zero()}
        if not ker:
            continue
        W = cech.solve_phi(ker, nerve)
        img = cech.cech_boundary(W)
        zero = LipschitzChain.zero(complex_, deg)
        ok = all((img.get(A, zero) - ker.get(A, zero)).is_zero()
                 for A in set(img) | set(ker))
        checks.append(_check(f"ker-eps[{i}]:deg{deg}", ok))
    return checks


def _suite_zigzag(args, rng):
    space, complex_, _, cover, nerve = _resolve(args)
    checks = []
    for i in range(args.budget):
        items = _compare_cycle(space, complex_, 1, rng)
        try:
            _zigzag_step(complex_, items, cover, nerve)
        except GeometryError as e:
            detail = {"detail": str(e)}
        else:
            detail = {}
        checks.append(_check(f"zigzag[{i}]", not detail, **detail))
    return checks


def _suite_space(args, rng):
    _, complex_, _, cover, nerve = _resolve(args, None)
    # the constructor's face-closure and degeneracy checks, run again
    try:
        check_simplices(complex_.vertices, complex_.simplices)
    except InputError as e:
        ok, detail = False, str(e)
    else:
        ok, detail = True, (f"{len(complex_.vertices)} vertices, "
                            f"{len(complex_.simplices)} simplices")
    checks = [_check("metric", ok, detail=detail)]
    C, _ = complex_.chain_complex()
    checks.append(_homology_check("homology", C))
    for sub in sorted(complex_.subcomplexes):
        pair = complex_.relative_pair(sub)
        checks.append(_homology_check(f"pair:{sub}", pair.quotient_complex))
    if cover is not None:
        missed = cover.verify_covers(min(args.depth, 3))
        checks.append(_check("coverage", not missed,
                             detail=f"{len(cover)} balls"))
        # every pair and triple absent from the nerve must be proved empty
        empt, uncertified = 0, []
        for arity in (2, 3):
            for tup in combinations(range(len(cover)), arity):
                if nerve.has(tup):
                    continue
                if cover.intersection_empty_certificate(tup):
                    empt += arity == 3
                else:
                    uncertified.append(list(tup))
        checks.append(_check("nerve", not uncertified,
                             detail=f"{len(nerve.tuples(2))} pairs, "
                                    f"{len(nerve.tuples(3))} triples, "
                                    f"{empt} certified empty"))
        if uncertified:
            checks[-1]["uncertified"] = uncertified[:5]
    return checks


def _homology_check(name, C):
    """Groups of C in every degree; they must give its Euler
    characteristic, the alternating sum of the chain ranks."""
    groups = [homology_data(C, k).group for k in range(len(C.dims))]
    euler = sum((-1) ** k * (h.betti - C.dim(k)) for k, h in enumerate(groups))
    return _check(name, not euler, detail=", ".join(str(h) for h in groups))


_SUITE_FNS = {
    "snf": _suite_snf,
    "stokes": _suite_stokes,
    "green": _suite_green,
    "prism": _suite_prism,
    "mass": _suite_mass,
    "degree0": _suite_degree0,
    "mcshane": _suite_mcshane,
    "cosheaf": _suite_cosheaf,
    "zigzag": _suite_zigzag,
    "space": _suite_space,
}
SUITES = tuple(_SUITE_FNS)


def cmd_verify(args):
    if args.suite not in _SUITE_FNS:
        raise InputError(
            f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}")
    _check_counts(args)
    rng = random.Random(args.seed)
    checks = _SUITE_FNS[args.suite](args, rng)
    failed = sum(1 for c in checks if c["status"] != "pass")
    payload = {
        "command": "verify",
        "suite": args.suite,
        "space": args.space,
        "cover": args.cover,
        "seed": args.seed,
        "budget": args.budget,
        "checks": checks,
        "failed": failed,
        "status": "ok" if failed == 0 else "fail",
    }
    _emit(payload, args.out)
    return 0 if failed == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mhom",
        description="Homology of finite metric complexes in three theories, "
                    "with exact cross-verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("homology", help="compute homology groups")
    ph.add_argument("--space", required=True,
                    help="bundled name or JSON file path")
    ph.add_argument("--pair", help="subcomplex name for relative groups")
    ph.add_argument("--theory", choices=THEORIES, default="singular")
    ph.add_argument("--degree", type=int, default=None)
    ph.add_argument("--out", help="write the report to this file")
    ph.set_defaults(fn=cmd_homology)

    pc = sub.add_parser("compare",
                        help="pairing certificates and zig-zag witnesses")
    pc.add_argument("--space", required=True)
    pc.add_argument("--pair", help="also run long-exact-sequence checks")
    pc.add_argument("--degree", type=int, default=1)
    pc.add_argument("--cover", help="bundled cover name or JSON file path")
    pc.add_argument("--depth", type=int, default=3,
                    help="sampling depth (default 3)")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--budget", type=int, default=3,
                    help="number of seeded runs")
    pc.add_argument("--out", help="write the report to this file")
    pc.set_defaults(fn=cmd_compare)

    pv = sub.add_parser("verify", help="run a named invariant suite")
    pv.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    pv.add_argument("--space")
    pv.add_argument("--cover")
    pv.add_argument("--depth", type=int, default=3,
                    help="sampling depth (default 3)")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--budget", type=int, default=20)
    pv.add_argument("--out", help="write the report to this file")
    pv.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        sys.stderr.write(f"input error: {e}\n")
        return 2
    except GeometryError as e:
        sys.stderr.write(f"verification failed: {e}\n")
        return 1
    except MhomError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
