"""Self-tests of the benchmark harness.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

They check that the harness catches wrong answers, that the span arithmetic
is right, and that a smoke size of every workload runs clean in seconds.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_package()

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from subposet_lab import find_subposet, la_exact, parse_poset_spec  # noqa: E402
from subposet_lab.families import SetFamily, Subset  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _op(op_id, result, optimum="6"):
    entry = {"id": op_id, "objective": "cardinality", "mode": "weak", "n": 4,
             "poset": "chain:2", "budget": None, "optimum": optimum, "source": "test"}
    return workloads._solver_op(entry, parse_poset_spec("chain:2"), lambda: result, None)


class TamperedResults(unittest.TestCase):
    def setUp(self):
        self.good = la_exact(4, parse_poset_spec("chain:2"))

    def judge(self, result):
        op = _op("la4-chain2", result)
        passed = run.run_pass([op])
        run.judge_pass([op], passed, None)
        return passed["verdicts"][0]

    def test_true_result_passes(self):
        self.assertEqual(self.judge(self.good)["status"], checks.OK)

    def test_wrong_value_fails(self):
        verdict = self.judge(dataclasses.replace(self.good, value=7))
        self.assertEqual(verdict["status"], checks.FAIL)

    def test_witness_with_the_pattern_fails(self):
        members = list(self.good.witness)
        bigger = next(Subset(4, m) for m in range(16)
                      if m.bit_count() == 3 and m & members[0].mask == members[0].mask)
        witness = SetFamily(4, members[1:] + [members[0], bigger])
        self.assertIsNotNone(find_subposet(witness, parse_poset_spec("chain:2")))
        tampered = dataclasses.replace(self.good, witness=witness, value=len(witness))
        self.assertEqual(self.judge(tampered)["status"], checks.FAIL)

    def test_budgeted_value_above_the_optimum_fails(self):
        op = _op("la4-chain2", dataclasses.replace(self.good, exhaustive=False), optimum="5")
        self.assertEqual(op.check(op.call()).status, checks.FAIL)

    def test_exception_counts_as_failed_op(self):
        def boom():
            raise RuntimeError("boom")

        op = dataclasses.replace(_op("x", None), call=boom)
        passed = run.run_pass([op])
        run.judge_pass([op], passed, None)
        self.assertEqual(passed["verdicts"][0]["status"], checks.FAIL)
        self.assertFalse(passed["verdicts"][0]["solved"])

    def test_result_that_changes_between_passes_fails(self):
        first = run.run_pass([_op("a", self.good)])
        run.judge_pass([_op("a", self.good)], first, None)
        other = dataclasses.replace(self.good, nodes_explored=self.good.nodes_explored + 1)
        second = run.run_pass([_op("a", other)])
        run.judge_pass([_op("a", other)], second, first)
        self.assertEqual(second["verdicts"][0]["status"], checks.FAIL)


class BoundsOutput(unittest.TestCase):
    def output(self, spec, fmt="table"):
        return workloads._run_cli(["bounds", "--poset", spec, "--format", fmt])

    def test_all_formats_match_closed_forms(self):
        for spec in workloads.BOUND_SPECS:
            if spec == "diamond:7":
                continue
            for fmt in workloads.FORMATS:
                outcome = checks.check_bounds_output(spec, fmt, *self.output(spec, fmt), frozenset())
                self.assertEqual(outcome.status, checks.OK, (spec, fmt, outcome.detail))

    def test_tampered_coefficient_fails(self):
        rc, text = self.output("K:4,4,4", "json")
        payload = json.loads(text)
        payload["rows"][0]["coefficient"] = "1/3"
        text = json.dumps(payload)
        outcome = checks.check_bounds_output("K:4,4,4", "json", rc, text, frozenset())
        self.assertEqual(outcome.status, checks.FAIL)

    def test_missing_diamond_row_is_a_known_defect_only_where_listed(self):
        rc, text = self.output("diamond:6")
        dropped = "\n".join(line for line in text.splitlines() if "diamond_width" not in line)
        listed = checks.check_bounds_output("diamond:6", "table", rc, dropped, frozenset({"diamond_width"}))
        unlisted = checks.check_bounds_output("diamond:6", "table", rc, dropped, frozenset())
        self.assertEqual(listed.status, checks.KNOWN_DEFECT)
        self.assertEqual(unlisted.status, checks.FAIL)


class SpanArithmetic(unittest.TestCase):
    def test_self_times_on_a_synthetic_tree(self):
        # root [0, 10] > a [1, 5] > b [2, 3]; root > c [6, 9]; aggregates under
        # c (1.5 s) and root (0.5 s).
        spans = [
            [0, -1, "op", "op", 0.0, 10.0, None],
            [1, 0, "solver.alpha", "solver", 1.0, 5.0, None],
            [2, 1, "posets.find_subposet", "posets", 2.0, 3.0, None],
            [3, 0, "cli.main", "cli", 6.0, 9.0, None],
        ]
        agg = {(3, "bounds.bound_main"): [4, 1.5, 0, "bounds"],
               (0, "posets.EmbeddingSearch.embeds_using"): [9, 0.5, 3, "posets"]}
        self.assertEqual(tracing.self_times(spans, agg), [2.5, 3.0, 1.0, 1.5])
        layers = tracing.layer_self_seconds(spans, agg)
        self.assertEqual(layers["solver"], 3.0)
        self.assertEqual(layers["posets"], 1.5)
        self.assertEqual(layers["bounds"], 1.5)
        self.assertEqual(layers["cli"], 1.5)
        self.assertEqual(layers["harness"], 2.5)
        self.assertEqual([r[0] for r in tracing.outermost(spans, {"solver.alpha", "posets.find_subposet"})], [1])

    def test_nested_aggregates_are_counted_once_in_time(self):
        tracer = tracing.Tracer()
        inner = tracer.agg_wrapper("bounds", "bounds.inner", lambda: time.sleep(0.01))
        outer = tracer.agg_wrapper("bounds", "bounds.outer", lambda: inner())
        root = tracer.open("op", "op")
        outer()
        tracer.close(root)
        self.assertEqual(tracer.agg[(0, "bounds.inner")][:2], [1, 0.0])
        self.assertGreaterEqual(tracer.agg[(0, "bounds.outer")][1], 0.01)

    def test_install_patches_importers_and_uninstall_restores(self):
        import subposet_lab
        import subposet_lab.cli as cli
        import subposet_lab.solver as solver

        original = solver.alpha
        modules = {layer: sys.modules[f"subposet_lab.{layer}"] for layer in tracing.LAYERS}
        tracer = tracing.Tracer()
        tracer.install(subposet_lab, modules)
        try:
            self.assertIs(cli.alpha, solver.alpha)
            self.assertIs(subposet_lab.alpha, solver.alpha)
            self.assertIs(solver.alpha.__wrapped__, original)
        finally:
            tracer.uninstall()
        self.assertIs(solver.alpha, original)
        self.assertIs(cli.alpha, original)


class SpeedNormalisation(unittest.TestCase):
    def test_rescale_on_synthetic_samples(self):
        # Kernel runs of 1 ms, 2 ms and 1 ms with 1 s of program time between
        # each: each second is worth REF_S / 1.5 ms at reference speed.
        probe = speed.SpeedProbe()
        probe.samples = [(0.0, 0.001), (1.001, 1.003), (2.003, 2.004)]
        self.assertAlmostEqual(probe.normalised(), 2 * speed.REF_S / 0.0015)
        self.assertAlmostEqual(probe.busy(0.5, 1.5), 0.002)
        self.assertAlmostEqual(probe.busy(1.002, 2.0035), 0.0015)
        self.assertAlmostEqual(speed.rescale(3.0, 0.002, 0.004), 3.0 * speed.REF_S / 0.003)

    def test_probe_keeps_kernel_time_out_and_restores_the_signal(self):
        def spin():
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass

        op = dataclasses.replace(_op("spin", None), call=spin)
        passed = run.run_pass([op, op], calibrate=True)
        self.assertGreaterEqual(len(passed["kernel"]), 6)
        # Each spin lasts 0.3 s of wall time, of which the kernel runs in it are not the op's.
        for seconds in passed["seconds"]:
            self.assertLess(seconds, 0.3)
            self.assertGreater(seconds, 0.2)
        self.assertGreater(passed["norm"], 0.0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


class Seeds(unittest.TestCase):
    def answers(self, workload, seed):
        ops = workloads.build(workload, seed, smoke=True)
        passed = run.run_pass(ops)
        return {op.id: (res.value, res.exhaustive) for op, (res, _) in zip(ops, passed["results"])
                if res.exhaustive}

    def test_second_seed_gives_identical_answers(self):
        for workload in ("cube-exact", "chain-alpha"):
            self.assertEqual(self.answers(workload, 1), self.answers(workload, 2))

    def test_seed_changes_the_inputs(self):
        first = [op.id for op in workloads.build("certify-batch", 1, smoke=True)]
        second = [op.id for op in workloads.build("certify-batch", 2, smoke=True)]
        self.assertEqual(sorted(first), sorted(second))
        self.assertNotEqual(first, second)


class Smoke(unittest.TestCase):
    def test_every_workload_runs_clean_in_seconds(self):
        e2e = {m["name"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            for trace, names in ((0, e2e), (1, per_layer)):
                t0 = time.perf_counter()
                out = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                     "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
                    cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=120,
                )
                self.assertEqual(out.returncode, 0, out.stderr)
                self.assertLess(time.perf_counter() - t0, 60)
                result = json.loads(out.stdout.splitlines()[-1])
                self.assertTrue(result["correct"], out.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), names)


if __name__ == "__main__":
    unittest.main()
