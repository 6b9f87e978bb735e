#!/usr/bin/env python3
"""Regenerates perfbench/digests.json, the committed output digests.

    python3 perfbench/record_digests.py [--seeds 0-64] [--seeds 20031115]

Runs each classic workload once per seed and stores every point's digest.
fig5_sharded's entry is the classic 944-proc point of fig5_cosched: the
partitioned core must reproduce it bit for bit. Re-record only when a change
is meant to alter simulated output; a simulator-only speed-up must leave
this file unchanged.
"""
import argparse
import json
import subprocess
import sys

import run

DEFAULT_SEED = 1
HELD_OUT_SEED = 20031115


def seeds_of(specs):
    out = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return sorted(set(out))


def digests(exe, workload, seed):
    r = subprocess.run([exe, "--workload", workload, "--seed", str(seed), "--seconds", "0",
                        "--min-reps", "1"], stdout=subprocess.PIPE, text=True, check=True)
    outs = json.loads(r.stdout.strip().splitlines()[-1])["reps"][0]["outcomes"]
    if not all(o["completed"] for o in outs):
        sys.exit("perfbench: %s seed %d did not complete" % (workload, seed))
    return [o["digest"] for o in outs]


def dumps(doc):
    """JSON with one line per (workload, seed)."""
    lines = []
    for w, by_seed in sorted(doc["digests"].items()):
        rows = ",\n".join("   %s: %s" % (json.dumps(s), json.dumps(d))
                          for s, d in sorted(by_seed.items(), key=lambda kv: int(kv[0])))
        lines.append("  %s: {\n%s\n  }" % (json.dumps(w), rows))
    head = {k: v for k, v in doc.items() if k != "digests"}
    return ("{\n" + "".join(" %s: %s,\n" % (json.dumps(k), json.dumps(v))
                            for k, v in sorted(head.items()))
            + ' "digests": {\n' + ",\n".join(lines) + "\n }\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", action="append",
                    help="seed or inclusive range lo-hi (repeatable)")
    args = ap.parse_args()
    seeds = seeds_of(args.seeds or ["0-64", str(HELD_OUT_SEED)])
    exe = run.build(run.build_dir())
    table = {"fig5_cosched": {}, "ale3d_io": {}, "fig5_sharded": {}}
    for seed in seeds:
        fig5 = digests(exe, "fig5_cosched", seed)
        table["fig5_cosched"][str(seed)] = fig5
        table["ale3d_io"][str(seed)] = digests(exe, "ale3d_io", seed)
        table["fig5_sharded"][str(seed)] = [fig5[-1]]
        print("seed", seed, "recorded", file=sys.stderr, flush=True)
    doc = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "note": "Per-point FNV-1a digests of simulated outputs, one list per "
                "(workload, seed), in point order. See perfbench/README.md.",
        "digests": table,
    }
    with open(run.DEFAULT_DIGESTS, "w") as fh:
        fh.write(dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
