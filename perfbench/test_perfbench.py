"""The benchmark's own tests, at tiny sizes.

    python3 perfbench/test_perfbench.py <bench.exe> <BENCHMARK.json>

Checks that BENCHMARK.json lists exactly the metrics the benchmark
defines, with the same units and directions; that every workload emits
every metric of its mode with that unit, correct and deterministic; that
the traced pass's layer self times add up to its wall time; and that bad
arguments exit 2 without a result.
"""

import json
import subprocess
import sys
import unittest

EXE, SPEC = sys.argv[1], sys.argv[2]
WORKLOADS = ("jacobi", "false-sharing", "kv-serve")


def bench(*args):
    return subprocess.run([EXE, *args], capture_output=True, text=True)


def run(workload, trace):
    p = bench("--workload", workload, "--seed", "7", "--seconds", "1",
              "--trace", str(trace), "--scale", "tiny")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    report = json.loads(lines[-2][len("report "):])
    return report, json.loads(lines[-1])


class Perfbench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(SPEC) as f:
            cls.spec = json.load(f)
        cls.catalog = json.loads(bench("--catalog").stdout)
        cls.runs = {(w, t): run(w, t) for w in WORKLOADS for t in (0, 1)}

    def test_spec_matches_catalog(self):
        for section in ("end_to_end", "per_layer"):
            self.assertEqual(self.spec[section], self.catalog[section])
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(WORKLOADS))

    def test_every_metric_emitted_with_its_unit(self):
        for (w, t), (_, result) in self.runs.items():
            section = self.spec["per_layer" if t else "end_to_end"]
            metrics = result["metrics"]
            self.assertEqual(sorted(metrics), sorted(m["name"] for m in section),
                             (w, t))
            for m in section:
                self.assertEqual(metrics[m["name"]]["unit"], m["unit"], (w, m))

    def test_correct_and_deterministic(self):
        for (w, t), (report, result) in self.runs.items():
            self.assertTrue(result["correct"], (w, t))
            self.assertEqual(result["failed"], 0, (w, t))
            self.assertGreaterEqual(result["attempted"], 1, (w, t))
            self.assertTrue(report["deterministic"], (w, t))
            self.assertEqual(report["error_rate"], 0, (w, t))

    def test_end_to_end_metrics_are_positive(self):
        for w in WORKLOADS:
            for name, m in self.runs[(w, 0)][1]["metrics"].items():
                self.assertGreater(m["value"], 0, (w, name))

    def test_self_times_add_up_to_wall(self):
        parts = self.catalog["self_time_parts"]
        for w in WORKLOADS:
            metrics = self.runs[(w, 1)][1]["metrics"]
            total = sum(metrics[k]["value"] * ns for k, ns in parts.items())
            wall = metrics["trace.wall_ns"]["value"]
            self.assertAlmostEqual(total, wall, delta=1e-6 * wall, msg=w)

    def test_bad_arguments_exit_2(self):
        for args in (["--workload", "nope", "--trace", "0"],
                     ["--workload", "jacobi", "--trace", "2"],
                     ["--workload", "jacobi", "--seconds", "0"]):
            p = bench(*args)
            self.assertEqual(p.returncode, 2, args)
            self.assertEqual(p.stdout, "", args)


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1], verbosity=2)
