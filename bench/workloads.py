"""The benchmark workloads.

Each workload prepares its inputs from the workload seed (untimed),
gives the CLI command script of one iteration, and evaluates an
iteration's outputs: correctness checks (failures are attached to the
command that produced the output), workload-identity counters, and the
workload's own throughput metrics.

Sizes: "full" is the benchmark; "smoke" runs in seconds for the
self-tests.
"""

from __future__ import annotations

import math
import os
import random
import shutil

import checks
from harness import (WORK, Command, flawchain, load_json, path, read_csv,
                     replay, spawn)

DEFAULT_SEED = 1
REPLAY_SAMPLE = 24   # simulate CSV rows replayed per iteration

IDENTITY = ("states", "arcs", "file_bytes", "trials", "steps", "z_total",
            "encoded_bits", "leaves", "condition_report_calls", "dumps_calls")


def _fresh_dir(name: str) -> str:
    rel = os.path.join(WORK, name)
    shutil.rmtree(path(rel), ignore_errors=True)
    os.makedirs(path(rel))
    return rel


def _guard(result, fn, *args):
    """Run one check; an unreadable or malformed output is a failure."""
    try:
        result.failures.extend(fn(*args))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        result.failures.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")


def _instance_identity(rel: str) -> dict:
    doc = load_json(rel)
    states = doc["states"]
    return {
        "states": math.prod(states["widths"]) if isinstance(states, dict) else states,
        "arcs": sum(len(pairs) for kernel in ("principal", "noise")
                    for _, pairs in doc.get(kernel) or ()),
        "file_bytes": os.path.getsize(path(rel)),
    }


def _sample(rng: random.Random, n: int, extra=()) -> list:
    return sorted(set(rng.sample(range(n), min(REPLAY_SAMPLE, n))) | set(extra))


def _replay_csv(result, csv, instance, seed, trials, budget, extra=()):
    """Check a simulate CSV against replayed trials; return its rows."""
    try:
        _, rows = read_csv(csv)
    except (OSError, ValueError) as exc:
        result.failures.append(f"{csv}: {exc}")
        return []
    picked = _sample(random.Random(seed), len(rows), extra)
    _guard(result, checks.csv_rows, rows, trials, budget,
           replay(instance, seed, budget, picked))
    return rows


class CertifyLarge:
    name = "certify_large"
    why = ("largest explicit k-SAT instance (65,536 states): gen, load, "
           "validation, analyzer and the certifier do most of the work")
    sizes = {"full": {"vars": 16, "clauses": 6, "width": 7},
             "smoke": {"vars": 10, "clauses": 6, "width": 5}}
    p = 0.05

    def prepare(self, seed: int, size: str) -> dict:
        cfg = self.sizes[size]
        rng = random.Random(seed)
        clauses = []
        for _ in range(cfg["clauses"]):
            chosen = rng.sample(range(1, cfg["vars"] + 1), cfg["width"])
            clauses.append(" ".join(str(v if rng.random() < 0.5 else -v)
                                    for v in chosen))
        flawchain("--version")   # compile the package once, untimed
        d = _fresh_dir(self.name)
        return {"dir": d, "vars": cfg["vars"],
                "clauses": clauses, "instance": f"{d}/instance.json"}

    def script(self, ctx: dict) -> list:
        d, inst = ctx["dir"], ctx["instance"]
        gen = ["gen", "ksat", "--vars", str(ctx["vars"]),
               *(f"--clause={c}" for c in ctx["clauses"]),
               "--noise", "point:0", "--p", str(self.p), "--out", inst]
        return [
            Command("gen", tuple(gen), f"{d}/gen.json"),
            Command("certify", ("certify", inst, "--out", f"{d}/certify.json"),
                    f"{d}/certify.stdout", ok_codes=(0, 1)),
            Command("audit", ("audit", "--out", f"{d}/audit.json"),
                    f"{d}/audit.stdout"),
        ]

    def outputs(self, ctx: dict) -> dict:
        return {"gen.json": "gen", "instance.json": "gen",
                "certify.json": "certify", "audit.json": "audit"}

    def evaluate(self, ctx: dict, res: dict):
        d, inst = ctx["dir"], ctx["instance"]
        identity, metrics, notes = {}, {}, {}
        try:
            gen = load_json(f"{d}/gen.json")
            sha = gen["manifest"]["instance_sha256"]
            res["gen"].failures.extend(checks.gen_doc(gen, inst))
            identity.update(_instance_identity(inst))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            res["gen"].failures.append(f"gen output: {exc}")
            sha = None
        try:
            cert = load_json(f"{d}/certify.json")
            res["certify"].failures.extend(
                checks.same_instance(cert, sha, "certify")
                + checks.certify_doc(cert, res["certify"].rc))
            notes["certified"] = cert.get("certified")
            notes["lambda_star"] = (cert.get("certificate") or {}).get("lambda_star")
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            res["certify"].failures.append(f"certify output: {exc}")
        _guard(res["audit"], lambda: checks.audit_doc(load_json(f"{d}/audit.json")))
        metrics["gen_s"] = (res["gen"].main_s, "s")
        metrics["certify_s"] = (res["certify"].main_s, "s")
        return identity, metrics, notes


class SimPipeline:
    """The simulation side in one script: a short-trial run whose time
    goes to per-trial stream setup, then a long-prefix chain whose time
    goes to the step loop, forensics and the exact tree."""

    name = "sim_pipeline"
    why = ("10^5 short star trials (stream setup, CSV, --check), then "
           "~950-step wheel-coloring trials, forensics of 8 long prefixes, "
           "the exact tree")
    sizes = {"full": {"mc_trials": 100_000,
                      "edges": "0-1,1-2,2-3,3-4,0-4,0-5,1-5,2-5,3-5,4-5",  # W5
                      "trials": 600, "forensics": 8, "band": (1000, 1400), "x": 13},
             "smoke": {"mc_trials": 5_000,
                       "edges": "0-1,1-2,2-3,0-3,0-4,1-4,2-4,3-4",          # W4
                       "trials": 100, "forensics": 2, "band": (20, 5000), "x": 8}}
    mc_p, mc_budget = 0.2, 20_000     # certified star: the tails are checked
    p, budget = 0.7, 10_000           # uncertified wheel, greedy noise

    def prepare(self, seed: int, size: str) -> dict:
        cfg = self.sizes[size]
        d = _fresh_dir(self.name)
        star, wheel = f"{d}/star.json", f"{d}/wheel.json"
        flawchain("gen", "star", "--k", "8", "--noise", "point:0",
                  "--p", str(self.mc_p), "--out", star)
        flawchain("gen", "coloring", "--edges", cfg["edges"], "--q", "4",
                  "--noise", "greedy", "--p", str(self.p), "--out", wheel)
        ctx = {"dir": d, "seed": seed, "star": star, "instance": wheel,
               "mc_trials": cfg["mc_trials"], "x": cfg["x"],
               "trials": cfg["trials"], "forensics": []}
        # The forensics trials are the first ones, in trial order, whose
        # bad prefix length lies in the band: a fixed amount of forensic
        # work per seed.  Found by one untimed run of the same simulate.
        spawn(self.script(ctx)[1], trace=False)
        _, rows = read_csv(f"{d}/sim.csv")
        lo, hi = cfg["band"]
        picked = [i for i, (hit, cens) in enumerate(rows)
                  if not cens and lo <= hit < hi][:cfg["forensics"]]
        if len(picked) < cfg["forensics"]:
            raise RuntimeError(f"seed {seed}: only {len(picked)} trials with "
                               f"a bad prefix in [{lo}, {hi})")
        ctx["forensics"] = picked
        return ctx

    def script(self, ctx: dict) -> list:
        d, inst, seed = ctx["dir"], ctx["instance"], str(ctx["seed"])
        cmds = [
            Command("mc", (
                "simulate", ctx["star"], "--trials", str(ctx["mc_trials"]),
                "--seed", seed, "--budget", str(self.mc_budget), "--check",
                "--out", f"{d}/mc.csv"), f"{d}/mc.json"),
            Command("simulate", (
                "simulate", inst, "--trials", str(ctx["trials"]), "--seed", seed,
                "--budget", str(self.budget), "--out", f"{d}/sim.csv"),
                f"{d}/sim.json"),
        ]
        for k, trial in enumerate(ctx["forensics"]):
            cmds.append(Command(f"forensics.{k}", (
                "forensics", inst, "--seed", seed, "--trial", str(trial),
                "--budget", str(self.budget), "--out", f"{d}/forensics.{k}.json"),
                f"{d}/forensics.{k}.stdout"))
        cmds.append(Command("tree", (
            "tree", inst, "--x", str(ctx["x"]), "--no-leaves",
            "--out", f"{d}/tree.json"), f"{d}/tree.stdout"))
        return cmds

    def outputs(self, ctx: dict) -> dict:
        out = {"star.json": "mc", "mc.csv": "mc", "mc.json": "mc",
               "wheel.json": "simulate", "sim.csv": "simulate",
               "sim.json": "simulate", "tree.json": "tree"}
        out.update({f"forensics.{k}.json": f"forensics.{k}"
                    for k in range(len(ctx["forensics"]))})
        return out

    def evaluate(self, ctx: dict, res: dict):
        d, seed, mc, sim = ctx["dir"], ctx["seed"], res["mc"], res["simulate"]
        identity = {key: a + b for (key, a), b in zip(
            _instance_identity(ctx["star"]).items(),
            _instance_identity(ctx["instance"]).values())}
        _guard(mc, lambda: checks.mc_summary(load_json(f"{d}/mc.json"), self.mc_p))
        mc_rows = _replay_csv(mc, f"{d}/mc.csv", ctx["star"], seed,
                              ctx["mc_trials"], self.mc_budget)
        rows = _replay_csv(sim, f"{d}/sim.csv", ctx["instance"], seed,
                           ctx["trials"], self.budget, extra=ctx["forensics"])
        steps = sum(hit for hit, _ in rows)
        identity["trials"] = len(mc_rows) + len(rows)
        identity["steps"] = sum(hit for hit, _ in mc_rows) + steps
        z_total = bits = f_main = 0
        for k, trial in enumerate(ctx["forensics"]):
            r = res[f"forensics.{k}"]
            f_main += r.main_s
            try:
                doc = load_json(f"{d}/forensics.{k}.json")
                r.failures.extend(checks.forensics_doc(
                    doc, rows[trial][0] if trial < len(rows) else None))
                z_total += doc["z"]
                bits += doc["encoded_bits"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                r.failures.append(f"forensics output: {exc}")
        identity.update(z_total=z_total, encoded_bits=bits)
        metrics = {"trials_per_s": (len(mc_rows) / mc.main_s, "1/s"),
                   "sim_steps_per_s": (steps / sim.main_s, "1/s"),
                   "forensics_steps_per_s": (z_total / f_main, "1/s")}
        try:
            tree = load_json(f"{d}/tree.json")
            res["tree"].failures.extend(checks.tree_doc(tree))
            identity["leaves"] = tree["n_leaves"]
            metrics["tree_leaves_per_s"] = (tree["n_leaves"] / res["tree"].main_s, "1/s")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            res["tree"].failures.append(f"tree output: {exc}")
        return identity, metrics, {}


WORKLOADS = {w.name: w for w in (CertifyLarge(), SimPipeline())}
