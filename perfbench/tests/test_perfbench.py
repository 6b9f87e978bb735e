"""Self-tests of the pasched benchmark.

    python3 -m unittest discover -s perfbench/tests -v

They build the benchmark binary on first use (as perfbench/run.py does) and run short
(--seconds 1) measurements: one to three minutes once the binary is built.
"""
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
# Units of per-layer metrics that count simulated work (or divide two
# such counts) and so must repeat exactly. The other units are host times,
# and `posts` (shard.ring_overflows), which depends on host thread timing.
COUNT_UNITS = {"count", "events", "bytes", "msgs", "sim_s"}

sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py)


def bench_run(workload, seed, trace):
    """Runs run.py for one second and returns its result line."""
    r = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace)],
                       cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=900)
    if r.returncode != 0:
        raise AssertionError("run.py failed (%d):\n%s" % (r.returncode, r.stderr[-4000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    traced = {}

    @classmethod
    def traced_result(cls, workload, n):
        key = (workload, n)
        if key not in cls.traced:
            cls.traced[key] = bench_run(workload, 1, 1)
        return cls.traced[key]

    def test_wrong_seed_digest_is_a_failed_point(self):
        with open(os.path.join(BENCH, "digests.json")) as fh:
            table = json.load(fh)
        ale3d = table["digests"]["ale3d_io"]
        self.assertNotEqual(ale3d["1"], ale3d["2"])
        ale3d["1"] = ale3d["2"]
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            swapped = os.path.join(tmp, "digests.json")
            with open(swapped, "w") as fh:
                json.dump(table, fh)
            with mock.patch.object(run, "DEFAULT_DIGESTS", swapped), \
                    contextlib.redirect_stdout(out):
                self.assertEqual(run.main(["--workload", "ale3d_io", "--seed", "1",
                                           "--seconds", "1", "--trace", "0"]), 0)
        res = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(res["correct"])
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(res["failed"], res["attempted"])

    def test_committed_seed_passes(self):
        res = bench_run("ale3d_io", 1, 0)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)

    def test_metric_names_units_and_declared_set(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        declared = {0: {m["name"] for m in spec["end_to_end"]},
                    1: {m["name"] for m in spec["per_layer"]}}
        untraced = bench_run("fig5_sharded", 1, 0)
        for trace, res in ((0, untraced), (1, self.traced_result("fig5_sharded", 0))):
            self.assertEqual(set(res["metrics"]), declared[trace])
            for name, m in res["metrics"].items():
                self.assertRegex(name, NAME)
                self.assertIsInstance(m["value"], (int, float), name)
                self.assertTrue(m["unit"], name)
        for name in ("wall_s", "setup_s", "events_per_s", "peak_rss_mb"):
            self.assertGreater(untraced["metrics"][name]["value"], 0, name)

    def test_traced_counts_repeat_exactly(self):
        for workload in ("fig5_sharded", "ale3d_io"):
            a = self.traced_result(workload, 0)
            b = self.traced_result(workload, 1)
            self.assertTrue(a["correct"] and b["correct"], workload)
            counts = [k for k, m in a["metrics"].items() if m["unit"] in COUNT_UNITS]
            self.assertIn("sim.events", counts)
            for k in counts:
                self.assertEqual(a["metrics"][k]["value"], b["metrics"][k]["value"],
                                 "%s %s" % (workload, k))
        sharded = self.traced_result("fig5_sharded", 0)["metrics"]
        self.assertGreater(sharded["shard.rounds"]["value"], 0)

    def test_refuses_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ale3d_io",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=tmp, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, timeout=180)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
