"""Benchmark entry point for mhom.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  mhom is imported from that checkout's
src/ in child processes started with worker.py, one after another, each
single-threaded.  With --trace 0 it starts SETUP_SAMPLES set-up-only
processes and one measuring process and prints the end-to-end metrics;
with --trace 1 it starts one traced process, prints the per-layer
metrics and writes the per-operation records to perfbench/out/.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exits nonzero without that line when any
process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("zigzag-torus", "zigzag-circle", "homology-products")
SETUP_SAMPLES = 4  # set-up-only processes; the measuring one adds a fifth
CHILD_TIMEOUT = 150  # seconds, per process

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Tracer totals per timed operation; `_s` metrics are self time.
PER_LAYER = (
    ("intlinalg.snf_calls", "count"),
    ("intlinalg.snf_s", "s"),
    ("intlinalg.snf_cells", "count"),
    ("intlinalg.invert_unimodular_s", "s"),
    ("chaincomplex.homology_data_s", "s"),
    ("chaincomplex.class_vector_s", "s"),
    ("geometry.point_in_simplex_calls", "count"),
    ("geometry.point_in_simplex_s", "s"),
    ("geometry.barycentric_subdivide_calls", "count"),
    ("complexes.sample_vertices_calls", "count"),
    ("complexes.sample_vertices_s", "s"),
    ("complexes.find_containing_simplex_calls", "count"),
    ("complexes.find_containing_simplex_s", "s"),
    ("complexes.ball_contains_calls", "count"),
    ("chains.chain_init_s", "s"),
    ("currents.reduce_calls", "count"),
    ("currents.reduce_s", "s"),
    ("currents.reduce_pieces_in", "count"),
    ("currents.reduce_pieces_out", "count"),
    ("bracket.bracket_s", "s"),
    ("bracket.inverse_points_s", "s"),
    ("cech.nerve_s", "s"),
    ("cech.split_s", "s"),
    ("cech.solve_phi_s", "s"),
    ("cech.solve_phi_subdivisions", "count"),
    ("cech.fill_zero_chain_calls", "count"),
    ("cech.fill_zero_chain_s", "s"),
    ("cech.fill_attempts", "count"),
    ("cech.cone_fill_s", "s"),
    ("cech.zigzag_fill_s", "s"),
    ("cech.zigzag_cancel_s", "s"),
    ("spaces.load_s", "s"),
    ("mhom.import_s", "s"),
    ("trace.op_p50_ms", "ms"),
    ("trace.absent_targets", "count"),
)
# Stage times per operation, including the wrapped calls beneath them.
INCLUSIVE = {"cech.zigzag_fill_s": "cech.zigzag_fill_incl_s",
             "cech.zigzag_cancel_s": "cech.zigzag_cancel_incl_s"}
# Values taken once per run, set-up included.
PER_RUN = {"cech.nerve_s": "cech.nerve_incl_s",
           "spaces.load_s": "spaces.load_incl_s",
           "mhom.import_s": "import_s",
           "trace.op_p50_ms": "op_p50_ms",
           "trace.absent_targets": "absent"}


class ChildFailed(Exception):
    pass


def start_child(args, extra):
    """Run worker.py to its end; returns (seconds from its start to its
    "ready" line, the rest of its standard output)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "ready":
        raise ChildFailed(f"worker {' '.join(extra)} exited with {code}")
    return ready_s, rest


def last_json(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise ChildFailed("worker printed no result") from None


def end_to_end(args):
    setups = [start_child(args, ["--setup-only"])[0]
              for _ in range(SETUP_SAMPLES)]
    ready_s, rest = start_child(args, [])
    out = last_json(rest)
    setups.append(ready_s)
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups),
          file=sys.stderr)
    times = [dt for _, dt in out["times"]]
    values = {
        "ops_per_s": len(times) / sum(times) if times else 0.0,
        "op_p50_ms": statistics.median(times) * 1000 if times else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    return out, {name: {"value": values[name], "unit": unit}
                 for name, unit in END_TO_END}


def per_layer(args):
    _, rest = start_child(args, ["--trace"])
    out = last_json(rest)
    times = [dt for _, dt in out["times"]]
    ops = max(1, len(times))
    setup, totals = out["setup_totals"], out["totals"]
    run = dict(setup, import_s=out["import_s"], absent=len(out["absent"]),
               op_p50_ms=statistics.median(times) * 1000 if times else 0.0)
    metrics = {}
    for name, unit in PER_LAYER:
        if name in PER_RUN:
            value = run.get(PER_RUN[name], 0)
        else:
            source = INCLUSIVE.get(name, name)
            value = (totals.get(source, 0) - setup.get(source, 0)) / ops
        metrics[name] = {"value": value, "unit": unit}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out",
                        f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "absent": out["absent"], "setup_totals": setup,
                   "totals": totals, "records": out["records"]}, fh)
    for name in out["absent"]:
        print(f"absent from mhom: {name}", file=sys.stderr)
    return out, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "mhom")):
        print(f"no mhom sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        out, metrics = per_layer(args) if args.trace else end_to_end(args)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in out["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps({"correct": out["wrong"] == 0,
                      "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
