"""Interleaved base/change runs of perfbench/run.py; medians to BENCH_*.json.

    python3 tools/bench_pairs.py --base REV [--workloads a,b] [--first-seed N]
                                 [--trace 0|1]

The base revision is exported with `git archive` into a temporary
directory.  The change is this checkout as it stands, copied into another
one: its tracked files with their uncommitted edits, and its untracked,
unignored files under src/ and perfbench/.  Neither copy holds a
__pycache__, so both sides import alike whether or not Python may write
bytecode.  A change whose src/ or perfbench/ (the code the runs execute)
differs from HEAD is labelled by the head commit and the first 12 hex
digits of the SHA-256 of that `git diff HEAD` followed by the path and
bytes of each untracked, unignored file there (a new module is in no
diff), so entries of different code never share a label.  Each
side runs its own perfbench/run.py with the given --trace,
one process at a time, for the benchmark's run_seconds, in PAIRS pairs
(ten, the fewest on which a gain may be claimed).  Pair i uses seed
first-seed + i on both sides, and the side that goes first alternates from
pair to pair, so a drift in the machine's speed falls on both.  Every
run's metrics are printed as they come; at the end one entry is appended
to a JSON list: per workload and metric, the median and quartiles of
each side (the parent's quartiles are the spread a gain must exceed) and
the number of pairs in which the change was better, with the failed
operations of each side, and for each side the `wc -l` of src/mhom/*.py.
A metric that reads 0 in every run of one side and in no run of the
other is not compared: its pair count is null and a note says so, since
a counter that stops reading is more often a counter that lost its hook
than work that is gone.  With --trace 0 (the default) the metrics are the
end-to-end ones and the list is BENCH_e2e.json; with --trace 1 they are
the per-layer ones of a traced run and the list is BENCH_layers.json.
Workloads, metrics and their directions come from BENCHMARK.json.
"""

import argparse
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# output list and BENCHMARK.json metric list, by --trace
MODES = {0: ("BENCH_e2e.json", "end_to_end"),
         1: ("BENCH_layers.json", "per_layer")}
PAIRS = 10


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev, dest):
    """The committed files of rev, unpacked under dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest)


def untracked():
    """Untracked, unignored files under src/ and perfbench/, as bytes."""
    return [path for path in git("ls-files", "--others", "--exclude-standard",
                                 "-z", "--", "src", "perfbench").split(b"\0")
            if path]


def copy_tree(dest):
    """This checkout's tracked files as they stand and its untracked()
    files, copied under dest; tracked files deleted in the tree are left
    out."""
    for path in git("ls-files", "-z").split(b"\0") + untracked():
        src = os.path.join(ROOT, os.fsdecode(path))
        if not path or not os.path.isfile(src):
            continue
        dst = os.path.join(dest, os.fsdecode(path))
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(src, dst)


def run(root, workload, seed, seconds, trace):
    """The last JSON line of perfbench/run.py in the checkout at root."""
    res = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode or not lines:
        raise SystemExit(f"run.py failed in {root} on {workload} seed {seed}:"
                         f"\n{res.stderr}")
    return json.loads(lines[-1])


def src_lines(root):
    """`wc -l` of src/mhom/*.py in the checkout at root."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "mhom", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def change_label():
    """HEAD's commit, plus a hash of the code that differs from it."""
    label = git("rev-parse", "HEAD").decode().strip()
    diff = git("diff", "HEAD", "--", "src", "perfbench")
    for path in untracked():
        with open(os.path.join(ROOT, os.fsdecode(path)), "rb") as fh:
            diff += b"\0" + path + b"\0" + fh.read()
    if diff.strip():
        label += "+diff:" + hashlib.sha256(diff).hexdigest()[:12]
    return label


def better(metric, head, base):
    return head > base if metric["better"] == "higher" else head < base


def zero_on_one_side(base, head):
    zero = [all(v == 0 for v in vs) for vs in (base, head)]
    return zero[0] != zero[1] and not any(v == 0 for v in
                                          (head if zero[0] else base))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare")
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=sorted(MODES), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    name, section = MODES[args.trace]
    out_path = os.path.join(ROOT, name)
    metrics = bench[section]
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    base_rev = git("rev-parse", args.base).decode().strip()
    head_rev = change_label()

    entry = {"base": base_rev, "head": head_rev,
             "seconds": seconds, "pairs": PAIRS, "trace": args.trace,
             "seeds": [args.first_seed + i for i in range(PAIRS)],
             "python": platform.python_version(), "cpus": os.cpu_count(),
             "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: os.path.join(tmp, side) for side in ("base", "head")}
        export(base_rev, roots["base"])
        copy_tree(roots["head"])
        entry["src_lines"] = {side: src_lines(root)
                              for side, root in roots.items()}
        for workload in workloads:
            runs = {"base": [], "head": []}
            for i, seed in enumerate(entry["seeds"]):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    out = run(roots[side], workload, seed, seconds,
                              args.trace)
                    runs[side].append(out)
                    values = " ".join(
                        f"{m['name']}={out['metrics'][m['name']]['value']:.4g}"
                        for m in metrics)
                    print(f"{workload} seed {seed} {side}: {values} "
                          f"failed={out['failed']}/{out['attempted']}",
                          flush=True)
            summary = {}
            for m in metrics:
                name = m["name"]
                base = [r["metrics"][name]["value"] for r in runs["base"]]
                head = [r["metrics"][name]["value"] for r in runs["head"]]
                summary[name] = {
                    "unit": m["unit"], "better": m["better"],
                    "base_median": statistics.median(base),
                    "head_median": statistics.median(head),
                    "base_quartiles": statistics.quantiles(base, n=4),
                    "head_quartiles": statistics.quantiles(head, n=4),
                    "head_better_pairs": sum(better(m, h, b)
                                             for h, b in zip(head, base))}
                if zero_on_one_side(base, head):
                    summary[name]["head_better_pairs"] = None
                    summary[name]["note"] = "reads 0 on one side only"
            summary["failed"] = {side: sum(r["failed"] for r in rs)
                                 for side, rs in runs.items()}
            summary["correct"] = all(r["correct"] for rs in runs.values()
                                     for r in rs)
            entry["workloads"][workload] = summary

    history = []
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            history = json.load(fh)
    history.append(entry)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=1)
        fh.write("\n")
    print(json.dumps(entry["workloads"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
