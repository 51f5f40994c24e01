"""Self-tests of the benchmark, at the smoke size (a minute or less).

    python3 bench/selftest.py

They run every workload through the real command line and check the
result line against BENCHMARK.json (every metric named, with its
unit), then feed deliberately corrupted outputs to each check and
expect the command that produced the output to count as failed.
"""

import json
import os
import random
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
from harness import HERE, ROOT, WORK, load_json, path, read_csv  # noqa: E402
from workloads import WORKLOADS, _sample  # noqa: E402

SEED = 7


def bench(*args):
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    return done.returncode, done.stdout


class MetricsEmitted(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))

    def test_every_metric_with_its_unit(self):
        for name in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    rc, out = bench("--workload", name, "--seed", str(SEED),
                                    "--seconds", "1", "--trace", str(trace),
                                    "--size", "smoke")
                    self.assertEqual(rc, 0, out)
                    last = json.loads(out.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(last["correct"], out)
                    self.assertEqual(last["failed"], 0)
                    self.assertGreaterEqual(last["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[kind]}
                    got = {k: v["unit"] for k, v in last["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertIn("fail_ratio", out)

    def test_workload_metrics_in_report(self):
        expect = {"certify_large": ("gen_s", "certify_s"),
                  "sim_pipeline": ("trials_per_s", "sim_steps_per_s",
                                   "forensics_steps_per_s", "tree_leaves_per_s")}
        for name, metrics in expect.items():
            rc, out = bench("--workload", name, "--seed", str(SEED),
                            "--seconds", "1", "--size", "smoke")
            self.assertEqual(rc, 0, out)
            for metric in metrics:
                self.assertRegex(out, rf"\n{metric} +\S+ +(s|1/s) ")

    def test_compare_rejects_different_work(self):
        rel = os.path.join(WORK, "selftest.old.json")
        rc, out = bench("--workload", "sim_pipeline", "--seed", str(SEED),
                        "--seconds", "1", "--size", "smoke", "--save", rel)
        self.assertEqual(rc, 0, out)
        rc, out = bench("--compare", rel, rel)
        self.assertEqual(rc, 0, out)
        self.assertIn("wall_s", out)
        record = load_json(rel)
        record["identity"]["leaves"] += 1
        changed = os.path.join(WORK, "selftest.new.json")
        with open(path(changed), "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        rc, out = bench("--compare", rel, changed)
        self.assertEqual(rc, 1)
        self.assertIn("invalid comparison: identity differ", out)


class CorruptedOutputsFail(unittest.TestCase):
    """One real smoke iteration per workload, then one corruption at a time."""

    def iterate(self, name):
        workload = WORKLOADS[name]
        ctx = workload.prepare(SEED, "smoke")
        it = run.run_iteration(workload, ctx, False, None, None)
        self.assertEqual(it.failures, [])
        return workload, ctx, {r.command.name: r for r in it.results}

    def assert_fails(self, workload, ctx, res, command, rel, edit):
        """Apply `edit` to the output file, re-evaluate, restore."""
        with open(path(rel), encoding="utf-8") as fh:
            original = fh.read()
        try:
            with open(path(rel), "w", encoding="utf-8") as fh:
                fh.write(edit(original))
            for r in res.values():
                r.failures = []
            workload.evaluate(ctx, res)
            self.assertTrue(res[command].failed, f"{rel}: corruption not caught")
        finally:
            with open(path(rel), "w", encoding="utf-8") as fh:
                fh.write(original)
            for r in res.values():
                r.failures = []

    @staticmethod
    def set_json(**changes):
        def edit(text):
            doc = json.loads(text)
            for key, value in changes.items():
                target = doc
                *parents, leaf = key.split("__")
                for p in parents:
                    target = target[int(p)] if p.isdigit() else target[p]
                target[int(leaf) if leaf.isdigit() else leaf] = value
            return json.dumps(doc)
        return edit

    def test_certify_large(self):
        w, ctx, res = self.iterate("certify_large")
        d = ctx["dir"]
        self.assert_fails(w, ctx, res, "certify", f"{d}/gen.json",
                          self.set_json(manifest__instance_sha256="0" * 64))
        cert = load_json(f"{d}/certify.json")
        self.assert_fails(w, ctx, res, "certify", f"{d}/certify.json",
                          self.set_json(certified=not cert["certified"]))
        self.assert_fails(w, ctx, res, "audit", f"{d}/audit.json",
                          self.set_json(ok=False))
        self.assert_fails(w, ctx, res, "gen", f"{d}/gen.json",
                          self.set_json(written="elsewhere.json"))
        certified = dict(cert, certified=True, sums=[{"ok": True}],
                         certificate={"lambda_star": 0.9, "budgets": [
                             {"steps": 10.0}, {"steps": 20.0}, {"steps": 30.0}]})
        self.assertEqual(checks.certify_doc(certified, 0), [])
        for bad in ({"sums": [{"ok": False}]},
                    {"certificate": dict(certified["certificate"], lambda_star=1.0)},
                    {"certificate": dict(certified["certificate"], budgets=[
                        {"steps": 30.0}, {"steps": 20.0}, {"steps": 10.0}])},
                    {"certificate": dict(certified["certificate"], budgets=[
                        {"steps": 10.0}, {"steps": float("inf")}])}):
            self.assertNotEqual(checks.certify_doc(dict(certified, **bad), 0), [], bad)
        self.assertNotEqual(checks.certify_doc(certified, 1), [])

    @staticmethod
    def csv_row_edit(rel, seed, extra=()):
        """Change one row the check replays: its hit step is off by one."""
        _, rows = read_csv(rel)
        row = _sample(random.Random(seed), len(rows), extra)[0]

        def edit(text):
            lines = text.split("\n")
            trial, hit, cens = lines[2 + row].split(",")
            lines[2 + row] = f"{trial},{int(hit) + 1},{cens}"
            return "\n".join(lines)
        return edit

    def test_sim_pipeline(self):
        w, ctx, res = self.iterate("sim_pipeline")
        d = ctx["dir"]
        for change in ({"censored": 1}, {"mean_hit": 1.5},
                       {"tail_check__rows__0__status": "violated"},
                       {"tail_check__guarantee": False}):
            self.assert_fails(w, ctx, res, "mc", f"{d}/mc.json",
                              self.set_json(**change))
        self.assert_fails(w, ctx, res, "mc", f"{d}/mc.csv",
                          self.csv_row_edit(f"{d}/mc.csv", ctx["seed"]))
        for change in ({"reconstruction_ok": False}, {"roundtrip_ok": False},
                       {"encoded_bits": 3}, {"z": 1}):
            self.assert_fails(w, ctx, res, "forensics.0", f"{d}/forensics.0.json",
                              self.set_json(**change))
        self.assert_fails(w, ctx, res, "simulate", f"{d}/sim.csv",
                          self.csv_row_edit(f"{d}/sim.csv", ctx["seed"],
                                            ctx["forensics"]))
        for change in ({"checks__mass_ok": False}, {"checks__sandwich_ok": False},
                       {"checks__skipped": True}, {"n_leaves": 1}):
            self.assert_fails(w, ctx, res, "tree", f"{d}/tree.json",
                              self.set_json(**change))
        self.assert_fails(w, ctx, res, "tree", f"{d}/tree.json", lambda text: "{")

    def test_reference_digests(self):
        self.assertEqual(checks.reference({"a": "1"}, {"a": "1"}), [])
        self.assertNotEqual(checks.reference({"a": "2"}, {"a": "1"}), [])
        self.assertNotEqual(checks.reference({}, {"a": "1"}), [])


if __name__ == "__main__":
    unittest.main()
