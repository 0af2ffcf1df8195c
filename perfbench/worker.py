"""One workload in one process: set up, then time whole passes.

Run by run.py with PYTHONPATH pointing at the checkout's src/.  Prints
"ready" once set-up is done (run.py times process start to that line),
then, unless --setup-only, one JSON line with the operation times and
counts.  With --trace, it wraps mhom's public functions first and adds
per-layer totals and the per-operation records.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

TORUS_FACTORS = (0, 3)
CIRCLE_FACTORS = (0,)


class ZigzagWorkload:
    """The loop body of `mhom compare --degree 1`: fill a seeded cycle
    current, then cancel the difference to its chain, verify=True."""

    def __init__(self, mhom, space, cover, loops, factors):
        self.mhom = mhom
        self.factors = factors
        self.complex = mhom.load_space(space)
        self.cover = mhom.load_cover(self.complex, cover)
        self.nerve = mhom.Nerve(self.cover, max_arity=3)
        # the pairing and iota checks `mhom compare` makes before its runs
        C, _ = self.complex.chain_complex()
        data = mhom.homology_data(C, 1)
        gens = mhom.brackets_of_generators(self.complex, 1, data)
        forms = mhom.pairing_forms(space, self.complex)
        self.pairing = mhom.pairing_matrix(gens, forms)
        self.iota = [mhom.chain_to_vector(
            mhom.chain_from_vector(self.complex, 1, v)) == list(v)
            for v in data.generators()]
        self.ops = loops

    def check_setup(self):
        n = len(self.factors)
        if not all(self.iota):
            return "a simplicial generator did not read back through iota"
        det = _det([[2 * x for x in row] for row in self.pairing])
        if len(self.pairing) != n or abs(det) != 1:
            return f"winding pairing has determinant {det}, expected +-1"
        return None

    def run(self, op):
        m = self.mhom
        items, _ = op
        t0 = time.perf_counter()
        T = m.PolyhedralCurrent.from_tuples(self.complex.ambient_dim, items,
                                            degree=1)
        res = m.zigzag_fill(T, self.cover, nerve=self.nerve)
        z = res.chain - m.LipschitzChain.from_simplices(self.complex, items)
        w = m.zigzag_cancel(z, res.filling, self.cover, nerve=self.nerve)
        dt = time.perf_counter() - t0
        return (res.chain.terms, res.chain.level, w.terms, w.level), dt

    def check(self, op, out):
        items, winding = op
        chain, chain_level, filling, filling_level = out
        return (checks.check_loop_chain(chain, self.factors, winding)
                or checks.check_cancel(items, chain, chain_level,
                                       filling, filling_level))


class HomologyWorkload:
    """Full integral homology of each complex, then class lookups of
    seeded cycles sum(a_i g_i) + boundary(b) in every degree."""

    def __init__(self, mhom, seed):
        self.mhom = mhom
        self.ops = []
        for cx in inputs.homology_complexes(seed):
            mc = mhom.MetricComplex(cx.ambient_dim, cx.vertices, cx.simplices)
            C, _ = mc.chain_complex()
            self.ops.append((cx, C, inputs.class_queries(seed, cx)))

    def check_setup(self):
        return None

    def run(self, op):
        """The cycles are built between the two timed phases, from the
        generators the first phase returns."""
        cx, C, queries = op
        hd = self.mhom.homology_data
        t0 = time.perf_counter()
        data = [hd(C, k) for k in range(len(C.dims))]
        t1 = time.perf_counter()
        cycles = {k: [checks.query_cycle(cx, k, d.generators(), a, b)
                      for a, b in queries[k]] for k, d in enumerate(data)}
        t2 = time.perf_counter()
        coords = {k: [data[k].class_vector(z) for z in cycles[k]]
                  for k in cycles}
        t3 = time.perf_counter()
        return (data, coords), (t1 - t0) + (t3 - t2)

    def check(self, op, out):
        cx, C, queries = op
        data, coords = out
        if len(data) != len(cx.groups):
            return f"{cx.name}: {len(data)} degrees, expected {len(cx.groups)}"
        for k, (d, expected) in enumerate(zip(data, cx.groups)):
            bad = (checks.check_group(k, d.group, expected)
                   or checks.check_generators(cx, k, d.generators(), expected))
            for (a, _), got in zip(queries[k], coords[k]):
                bad = bad or checks.check_coordinates(k, got, a, expected)
            if bad:
                return f"{cx.name}: {bad}"
        return None


def _det(rows):
    A = [[Fraction(x) for x in r] for r in rows]
    n, det = len(A), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if A[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            A[c], A[p] = A[p], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return det


def build(workload, mhom, seed):
    if workload == "zigzag-torus":
        return ZigzagWorkload(mhom, "torus", "torus_balls",
                              inputs.torus_loops(seed), TORUS_FACTORS)
    if workload == "zigzag-circle":
        return ZigzagWorkload(mhom, "s1", "s1_arcs3",
                              inputs.circle_loops(seed), CIRCLE_FACTORS)
    if workload == "homology-products":
        return HomologyWorkload(mhom, seed)
    raise SystemExit(f"unknown workload {workload!r}")


def import_mhom():
    """Import mhom from this checkout's src/, refusing any other copy."""
    src = os.path.join(os.path.dirname(HERE), "src")
    t0 = time.perf_counter()
    import mhom
    import_s = time.perf_counter() - t0
    where = os.path.realpath(os.path.dirname(mhom.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"mhom was imported from {where}, not from {src}")
    return mhom, import_s


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    mhom, import_s = import_mhom()
    tracer = Tracer() if args.trace else None
    absent = tracer.install() if tracer else []
    work = build(args.workload, mhom, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    setup_totals = tracer.snapshot() if tracer else {}

    bad_setup = work.check_setup()
    problems = [f"setup: {bad_setup}"] if bad_setup else []
    wrong = len(problems)
    attempted, times, records = 0, [], []
    start = time.perf_counter()
    while not attempted or time.perf_counter() - start < args.seconds:
        for i, op in enumerate(work.ops):
            attempted += 1
            gc.collect()
            before = tracer.snapshot() if tracer else None
            try:
                out, dt = work.run(op)
            except Exception as exc:  # a failed operation, not a failed run
                problems.append(f"op {i}: {type(exc).__name__}: {exc}")
                continue
            if tracer:
                after = tracer.snapshot()
                records.append({"op": i, "seconds": dt, "layers": {
                    k: v - before.get(k, 0) for k, v in after.items()
                    if v != before.get(k, 0)}})
            bad = work.check(op, out)
            if bad:
                problems.append(f"op {i}: wrong output: {bad}")
                wrong += 1
                continue
            times.append((i, dt))

    result = {
        "attempted": attempted,
        "failed": attempted - len(times),
        "wrong": wrong,
        "problems": problems[:5],
        "times": times,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result.update(setup_totals=setup_totals, totals=tracer.snapshot(),
                      records=records, absent=absent)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
