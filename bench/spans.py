"""Spans and counters around the calls into each flawchain layer.

The benchmark's child process installs these wrappers before it calls
`flawchain.cli.main`; nothing inside the package changes.  Every
function named in LAYERS is replaced, in each flawchain module (or
class) that binds it, by a wrapper that records one span: name, parent
span, start, end, and whether it raised.  No span is placed per trial,
step, row or leaf: `simulator.run` is spanned only where the CLI calls
it (the forensics command), not once per trial inside `monte_carlo`.

Counters are computed from a spanned call's arguments and result.  The
tracer's clock excludes the time spent computing them, so they do not
inflate any span's self time.

The parent side (`layer_metrics`) turns the recorded spans of one
script iteration into `<layer>.<function>.calls` / `.self_s`,
`<layer>.errors` and the layer counters.
"""

from __future__ import annotations

import functools
import os
import sys
import time

LAYERS = {
    "cli": ("main",),
    "core": ("validate_instance", "arc_bound"),
    "instances": ("gen_ksat", "attach_noise"),
    "fileio": ("load", "save", "digest", "from_dict", "dumps"),
    "analyzer": ("flaw_profiles", "causality_graph", "congestion"),
    "certifier": ("certify", "lambda_search", "build_certificate",
                  "inequality_audit", "condition_report"),
    "simulator": ("monte_carlo", "tail_check", "HittingStats.tail_table", "run"),
    "forensics": ("break_sets", "encode", "decode", "reconstruct_witness"),
    "exact": ("truncated_tree", "verify_stratification", "bad_mass",
              "prefix_entropy"),
}

# Spanned only where these modules bind them (see the module docstring).
ONLY_IN = {"simulator.run": ("flawchain.cli",)}

COUNTERS = ("core.states", "core.arcs_principal", "core.arcs_noise",
            "fileio.bytes", "simulator.trials", "simulator.steps",
            "simulator.censored", "forensics.z_total", "forensics.bits_total",
            "exact.leaves")

# Call counts recorded on untraced runs too, as workload-identity counters.
COUNTED = ("certifier.condition_report", "fileio.dumps")


def _count_instance(c, args, kwargs, inst):
    c["core.states"] += inst.n_states
    c["core.arcs_principal"] += sum(len(row) for row in inst.principal)
    c["core.arcs_noise"] += sum(len(row) for row in inst.noise)


def _count_load(c, args, kwargs, result):
    c["fileio.bytes"] += os.path.getsize(args[0])


def _count_save(c, args, kwargs, result):
    c["fileio.bytes"] += os.path.getsize(args[1])


def _count_monte_carlo(c, args, kwargs, stats):
    c["simulator.trials"] += stats.trials
    c["simulator.steps"] += sum(stats.budget if h is None else h for h in stats.hits)
    c["simulator.censored"] += stats.censored


def _count_run(c, args, kwargs, traj):
    c["simulator.trials"] += 1
    c["simulator.steps"] += traj.n_steps
    c["simulator.censored"] += traj.hit_step is None


def _count_break_sets(c, args, kwargs, seq):
    c["forensics.z_total"] += seq.z


def _count_encode(c, args, kwargs, bits):
    c["forensics.bits_total"] += len(bits)


def _count_tree(c, args, kwargs, tree):
    c["exact.leaves"] += tree.n_leaves


HOOKS = {
    "core.validate_instance": _count_instance,
    "fileio.load": _count_load,
    "fileio.save": _count_save,
    "simulator.monte_carlo": _count_monte_carlo,
    "simulator.run": _count_run,
    "forensics.break_sets": _count_break_sets,
    "forensics.encode": _count_encode,
    "exact.truncated_tree": _count_tree,
}


def span_names():
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def metric_names():
    """Every per-layer metric, in report order, with its unit."""
    out = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            out.append((f"{layer}.{fn}.calls", "count"))
            out.append((f"{layer}.{fn}.self_s", "s"))
        out.extend((name, "count") for name in COUNTERS
                   if name.startswith(layer + "."))
        out.append((f"{layer}.errors", "count"))
    out.append(("exact.truncated_tree.useful_ratio", "ratio"))
    out.append(("trace.overhead_s", "s"))
    out.append(("trace.uncovered_share", "ratio"))
    return out


class Tracer:
    """In-memory span recorder for one child process."""

    def __init__(self):
        self.spans = []   # [name, parent index, start, end, raised]
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.calls = dict.fromkeys(COUNTED, 0)
        self.paused = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def span(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self.stack[-1] if self.stack else -1,
                    self.clock(), None, False]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = self.clock()
                self.stack.pop()
            if name in self.calls:
                self.calls[name] += 1
            if hook is not None:
                t0 = time.perf_counter()
                hook(self.counters, args, kwargs, result)
                self.paused += time.perf_counter() - t0
            return result
        return wrapper

    def count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, full: bool) -> None:
        """Wrap every LAYERS function (full) or only the COUNTED ones."""
        for name in (span_names() if full else COUNTED):
            layer, path = name.split(".", 1)
            owner = sys.modules[f"flawchain.{layer}"]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, attr)
            wrapper = self.span(name, original) if full else self.count(name, original)
            if cls:
                setattr(owner, attr, wrapper)
                continue
            for modname in ONLY_IN.get(name, _flawchain_modules()):
                module = sys.modules[modname]
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def record(self) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "calls": self.calls}


def _flawchain_modules():
    return [name for name in sys.modules
            if name == "flawchain" or name.startswith("flawchain.")]


def layer_metrics(records) -> dict:
    """Per-layer metrics of one traced script iteration.

    `records` are the child records of its commands.  Self time is a
    span's duration minus the durations of its direct children.  Also
    sets `trace.uncovered_share`: the share of cli.main time that no
    child span covers.  The other two derived metrics are the caller's.
    """
    out = {name: 0 for name, _ in metric_names()}
    main_s = 0.0
    for rec in records:
        spans = rec.get("spans") or []
        covered = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, _, start, end, raised), inner in zip(spans, covered):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - inner
            if raised:
                out[name.split(".")[0] + ".errors"] += 1
            if name == "cli.main":
                main_s += end - start
        for name, value in (rec.get("counters") or {}).items():
            out[name] += value
    if main_s > 0:
        out["trace.uncovered_share"] = out["cli.main.self_s"] / main_s
    return out
