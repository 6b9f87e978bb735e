#!/usr/bin/env python3
"""pasched performance benchmark.

Builds the benchmark binary (perfbench/CMakeLists.txt: Release,
PASCHED_VALIDATE=OFF) from the checkout's sources, runs one workload for a
host-time budget, checks every simulated output against the committed
digests, and prints the metrics. The last line of standard output is the
result as one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload fig5_cosched --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes the span file named on the "# spans:" line). See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig5_cosched", "ale3d_io", "fig5_sharded")
DEFAULT_DIGESTS = os.path.join(HERE, "digests.json")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then builds the binary; output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
                      "-DPASCHED_VALIDATE=OFF"])
    steps.append(["cmake", "--build", bdir, "--target", "pasched_perfbench", "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            sys.exit(1)
    return os.path.join(bdir, "pasched_perfbench")


def source_record():
    """Git commit when there is one, and a digest of the sources either way
    (benchmark checkouts are not git repositories)."""
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=10)
            if r.returncode == 0:
                commit = r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as fh:
        h.update(fh.read())
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".cpp", ".hpp", ".txt", ".py", ".json")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return {"git_commit": commit, "source_sha256": h.hexdigest()[:16]}


def check_outputs(res, pinned):
    """Counts failed points. A point fails if it did not complete, if its
    digest differs from the committed one (or, for a seed without one, from
    the first repetition's), or, on fig5_sharded, from the classic-engine
    twin of the same point. The traced pass and fig5_sharded's traced
    multi-worker run are checked like a repetition."""
    reps = [r["outcomes"] for r in res["reps"]]
    expected = pinned or [o["digest"] for o in reps[0]]
    twin = res.get("classic_twin")
    if twin is not None and twin[0]["digest"] != expected[0]:
        log("perfbench: classic twin digest", twin[0]["digest"], "differs from", expected[0])
        expected = None
    runs = list(reps)
    for extra in ("traced", "multi_worker"):
        if extra in res:
            runs.append(res[extra])
    attempted = failed = 0
    for outs in runs:
        for i, o in enumerate(outs):
            attempted += 1
            ok = (o["completed"] and expected is not None and len(outs) == len(expected)
                  and o["digest"] == expected[i])
            if not ok:
                failed += 1
                log("perfbench: point", o["point"], "digest", o["digest"],
                    "completed", o["completed"], "expected",
                    expected[i] if expected and i < len(expected) else None)
    return attempted, failed


def end_to_end(res):
    reps = res["reps"]
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "events_per_s": (statistics.median(r["events"] / r["run_s"] for r in reps), "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bdir = build_dir()
    exe = build(bdir)
    spans = os.path.join(bdir, "spans-%s-%d.json" % (args.workload, args.seed))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--trace-out", spans]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if r.returncode != 0:
        log("perfbench: pasched_perfbench exited with", r.returncode)
        sys.exit(r.returncode)
    res = json.loads(r.stdout.strip().splitlines()[-1])

    with open(DEFAULT_DIGESTS) as fh:
        table = json.load(fh)
    pinned = table["digests"].get(args.workload, {}).get(str(args.seed))
    attempted, failed = check_outputs(res, pinned)
    fail_rate = failed / attempted

    record = dict(res["build"])
    record.update(source_record())
    record.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "reps": len(res["reps"]),
                   "digests": "committed" if pinned is not None else "unpinned seed: "
                   "repetitions and the classic twin must agree"})
    print("# build:", json.dumps(record, sort_keys=True))

    if args.trace:
        metrics = {k: (v["value"], v["unit"]) for k, v in res["layers"].items()}
        print("# spans:", os.path.relpath(spans, ROOT))
    else:
        metrics = end_to_end(res)
    rows = dict(metrics)
    rows["fail_rate"] = (fail_rate, "share")
    for name, (value, unit) in rows.items():
        print("%-28s %16.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
