"""flawchain benchmark: timed CLI command scripts with checked outputs.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S]
                         [--trace 0|1] [--size full|smoke] [--save FILE]
    python3 bench/run.py --compare OLD.json NEW.json

Workloads (workloads.py): certify_large, sim_pipeline.  One
iteration runs the workload's command script; every command runs in a
fresh child interpreter calling `flawchain.cli.main(argv)`, one at a
time, so import and cache fill are paid per command as a shell user
pays them.  Iterations repeat while the next one fits in --seconds
(at least one).  With --trace 1 iterations alternate untraced and
traced (at least two), so the tracing overhead is measured too.
Outputs are checked after every iteration, outside the timed region.

The host's speed drifts, so an untimed probe command (harness.PROBE)
runs before every workload command, and setup_s, wall_s and cpu_s are
scaled by REFERENCE_PROBE_S over the iteration's median probe time:
seconds on a host where the probe takes REFERENCE_PROBE_S.  The report
also prints them unscaled (raw_setup_s, raw_wall_s, raw_cpu_s) with
the probe time (probe_s).

The last line of standard output is one JSON object with the keys
correct, attempted (commands run), failed (commands that exited
unexpectedly, raised, or failed a check) and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Lines
before it are a readable report.  --save writes the full record
(samples, workload-identity counters, run environment) for --compare.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import spans  # noqa: E402
from harness import (HERE, REFERENCE_PROBE_S, ROOT, SRC, THREAD_VARS,  # noqa: E402
                     WORK, path, probe, sha256, spawn)
from workloads import DEFAULT_SEED, IDENTITY, WORKLOADS  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


class Iteration:
    def __init__(self, traced: bool, results: list, probes: list):
        self.traced = traced
        self.results = results
        self.probe_s = statistics.median(probes)
        self.scale = REFERENCE_PROBE_S / self.probe_s
        self.identity = dict.fromkeys(IDENTITY, 0)
        self.metrics = {}
        self.notes = {}
        self.digests = {}

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def failures(self) -> list:
        return [(r.command.name, r.failures or [r.error or f"exit {r.rc}"])
                for r in self.results if r.failed]


def run_iteration(workload, ctx, traced: bool, reference: dict | None,
                  first: Iteration | None) -> Iteration:
    results, probes = [], []
    for cmd in workload.script(ctx):
        probes.append(probe())
        results.append(spawn(cmd, traced))
    it = Iteration(traced, results, probes)
    res = {r.command.name: r for r in it.results}
    identity, it.metrics, it.notes = workload.evaluate(ctx, res)
    it.identity.update(identity)
    for r in it.results:
        calls = r.record.get("calls") or {}
        it.identity["condition_report_calls"] += calls.get("certifier.condition_report", 0)
        it.identity["dumps_calls"] += calls.get("fileio.dumps", 0)
    for name, cmd in workload.outputs(ctx).items():
        rel = os.path.join(ctx["dir"], name)
        try:
            it.digests[name] = sha256(rel)
        except OSError as exc:
            res[cmd].failures.append(f"{name}: {exc}")
            continue
        if first is not None and first.digests.get(name) != it.digests[name]:
            res[cmd].failures.append(f"{name} differs from the first iteration")
        if reference is not None:
            res[cmd].failures.extend(checks.reference(
                {name: it.digests[name]}, {name: reference.get(name)}))
    return it


def percentile_tail(values):
    """(p, value): the highest whole percentile with at least ten samples
    beyond it (nearest rank), or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)
    return p, sorted(values)[rank - 1]


def summarize(iterations) -> dict:
    """End-to-end samples over the untraced iterations, scaled and raw."""
    plain = [it for it in iterations if not it.traced]
    raw = {
        "setup_s": [[r.setup_s for r in it.results] for it in plain],
        "wall_s": [[it.wall_s] for it in plain],
        "cpu_s": [[sum(r.cpu_s for r in it.results)] for it in plain],
    }
    samples = {name: [v * it.scale for it, vs in zip(plain, per_it) for v in vs]
               for name, per_it in raw.items()}
    samples["peak_rss_mb"] = [max(r.rss_mb for r in it.results) for it in plain]
    for name, per_it in raw.items():
        samples["raw_" + name] = [v for vs in per_it for v in vs]
    samples["probe_s"] = [it.probe_s for it in plain]
    samples["main_s"] = [sum(r.main_s for r in it.results) for it in plain]
    for it in plain:
        for name, (value, _) in it.metrics.items():
            samples.setdefault(name, []).append(value)
    return samples


def layer_summary(iterations) -> dict:
    traced = [it for it in iterations if it.traced]
    plain = [it for it in iterations if not it.traced]
    per_it = []
    for it in traced:
        m = spans.layer_metrics([r.record for r in it.results])
        built = m["exact.leaves"]
        m["exact.truncated_tree.useful_ratio"] = (
            it.identity["leaves"] / built if built else 0.0)
        per_it.append(m)
    out = {name: statistics.median(m[name] for m in per_it)
           for name, _ in spans.metric_names()}
    out["trace.overhead_s"] = (  # probe-scaled, as wall_s
        statistics.median(it.wall_s * it.scale for it in traced)
        - statistics.median(it.wall_s * it.scale for it in plain))
    return out


def environment() -> dict:
    env = {"python": platform.python_version(),
           "numpy": metadata.version("numpy"),
           "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "child_env": dict.fromkeys(THREAD_VARS, "1"),
           "git_revision": None, "git_dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, check=False).stdout.strip()
        env["git_revision"] = git("rev-parse", "HEAD") or None
        env["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return env


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def benchmark(args) -> int:
    workload = WORKLOADS[args.workload]
    reference = None
    if args.seed == DEFAULT_SEED and args.size == "full":
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh).get(workload.name)
    os.makedirs(path(WORK), exist_ok=True)
    env = environment()
    load_before = os.getloadavg()
    ctx = workload.prepare(args.seed, args.size)

    iterations = []
    measured = 0.0
    need = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        it = run_iteration(workload, ctx, traced, reference,
                           iterations[0] if iterations else None)
        iterations.append(it)
        measured += it.wall_s
        if len(iterations) >= need and measured + it.wall_s > args.seconds:
            break
    load_after = os.getloadavg()

    attempted = sum(len(it.results) for it in iterations)
    failures = [f for it in iterations for f in it.failures]
    samples = summarize(iterations)
    medians = {name: statistics.median(v) for name, v in samples.items()}
    units = dict(END_TO_END, raw_setup_s="s", raw_wall_s="s", raw_cpu_s="s",
                 probe_s="s", main_s="s")
    for it in iterations:
        units.update((name, unit) for name, (_, unit) in it.metrics.items())

    first = iterations[0]
    print(f"# flawchain benchmark: workload={workload.name} seed={args.seed} "
          f"(default {DEFAULT_SEED}) size={args.size} trace={args.trace}")
    print(f"# why: {workload.why}")
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# load average before {load_before}, after {load_after}")
    print(f"# iterations: {len(iterations)} "
          f"({sum(it.traced for it in iterations)} traced), "
          f"commands per iteration: {len(first.results)}")
    print(f"# identity: {json.dumps(first.identity, sort_keys=True)}")
    if first.notes:
        print(f"# seed {args.seed}: {json.dumps(first.notes, sort_keys=True)}")
    print(f"{'metric':<24}{'median':>14}  {'unit':<6}{'n':>5}  tail")
    for name, values in samples.items():
        tail = percentile_tail(values)
        tail_text = f"p{tail[0]}={fmt(tail[1])}" if tail else "-"
        print(f"{name:<24}{fmt(medians[name]):>14}  {units[name]:<6}"
              f"{len(values):>5}  {tail_text}")
    print(f"{'fail_ratio':<24}{fmt(len(failures) / attempted):>14}  "
          f"{'ratio':<6}{attempted:>5}")
    for name, messages in failures:
        print(f"FAILED {name}: {'; '.join(messages)}")

    if args.trace:
        layers = layer_summary(iterations)
        for name, unit in spans.metric_names():
            print(f"{name:<44}{fmt(layers[name]):>14}  {unit}")
        absent = [n for n in spans.span_names() if not layers[f"{n}.calls"]]
        print(f"# spans with no calls on this workload: {', '.join(absent) or 'none'}")
        traced = next(it for it in iterations if it.traced)
        for r in traced.results:
            share = spans.layer_metrics([r.record])["trace.uncovered_share"]
            print(f"# {r.command.name}: share of cli.main time no span covers {share:.4f}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spans.metric_names()}
    else:
        metrics = {name: {"value": medians[name], "unit": unit}
                   for name, unit in END_TO_END}

    if args.save:
        record = {"workload": workload.name, "seed": args.seed,
                  "default_seed": DEFAULT_SEED, "size": args.size,
                  "trace": args.trace, "environment": env,
                  "load_before": load_before, "load_after": load_after,
                  "identity": first.identity, "notes": first.notes,
                  "samples": samples, "medians": medians, "units": units,
                  "attempted": attempted, "failures": failures,
                  "metrics": metrics}
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def compare(old_path: str, new_path: str) -> int:
    """Median change per metric, or invalid when the runs did different work."""
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    same = ("workload", "seed", "size", "identity")
    differ = [key for key in same if old.get(key) != new.get(key)]
    if differ:
        print(f"invalid comparison: {', '.join(differ)} differ")
        for key in differ:
            print(f"  {key}: {old.get(key)} -> {new.get(key)}")
        return 1
    print(f"workload={new['workload']} seed={new['seed']} size={new['size']}")
    for name, value in new["medians"].items():
        before = old["medians"].get(name)
        if not before:
            continue
        change = value / before - 1.0
        line = f"{name:<24}{fmt(before):>14} -> {fmt(value):<14}{change:+.2%}"
        if name in bounds:
            worse = change if bounds[name]["better"] == "lower" else -change
            line += "  REGRESSION" if worse > bounds[name]["bound"] else "  within bound"
        print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--save", default=None, help="write the full record here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "flawchain", "cli.py")):
        print(f"benchmark: no flawchain sources under {SRC}", file=sys.stderr)
        return 2
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
