"""Command line front end.

Subcommands: gen, analyze, certify, simulate, forensics, tree, audit.
Every produced document embeds a run manifest (tool version, resolved
arguments, instance digest) and rendering is deterministic: rerunning a
command with the same arguments yields byte-identical outputs.  One
deliberate exception: `gen` writes instance files in their canonical
digest-stable layout and prints its manifest to stdout instead.

Exit codes: 0 success (certify: certified), 1 certify/audit found the
property violated, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from . import fileio
from .analyzer import (causality_graph, flaw_profiles, global_noise_bits,
                       global_principal_bits)
from .certifier import certify, inequality_audit
from .core import ModelError, arc_bound
from .exact import CapExceeded, stratification_row, tree_cap, truncated_tree
from .forensics import (ForensicsError, break_sets, decode, encode,
                        encoded_length, reconstruct_witness, witness)
from .instances import (NoiseModel, attach_noise, gen_coloring, gen_ksat,
                        gen_random, gen_star, gen_uniform_singletons)
from .simulator import monte_carlo, run, tail_check


def _manifest(command: str, args: argparse.Namespace, instance=None,
              skip=("func", "command")) -> dict:
    resolved = {}
    for key, value in vars(args).items():
        if key in skip or callable(value):
            continue
        if isinstance(value, (list, tuple)):
            value = list(value)
        resolved[key] = value
    return {
        "tool": "flawchain",
        "version": __version__,
        "command": command,
        "arguments": resolved,
        "instance_sha256": fileio.digest(instance) if instance is not None else None,
    }


def _emit(doc: dict, out_path, as_text=None) -> None:
    if as_text is not None:
        payload = as_text
    else:
        payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _parse_noise(spec: str) -> NoiseModel:
    if spec == "selfloop":
        return NoiseModel.selfloop()
    if spec == "uniform":
        return NoiseModel.uniform()
    if spec == "greedy":
        return NoiseModel.greedy_adversarial()
    if spec.startswith("point:"):
        return NoiseModel.point(int(spec.split(":", 1)[1]))
    raise ModelError(f"unknown noise model {spec!r} (selfloop, uniform, "
                     f"greedy, point:STATE)")


def _cmd_gen(args) -> int:
    if args.family == "star":
        inst = gen_star(args.k)
    elif args.family == "coloring":
        edges = []
        for part in args.edges.split(","):
            try:
                u, v = (int(x) for x in part.split("-"))
            except ValueError:
                raise ModelError(f"bad edge {part!r} in --edges: expected U-V "
                                 f"with integer vertices U and V") from None
            edges.append((u, v))
        inst = gen_coloring(edges, args.q, explicit=True)
    elif args.family == "ksat":
        clauses = [[int(tok) for tok in c.split()] for c in args.clause]
        inst = gen_ksat(args.vars, clauses, explicit=True)
    elif args.family == "random":
        inst = gen_random(args.states, args.flaws, args.seed, p=args.p)
    else:
        inst = gen_uniform_singletons(args.states, args.flaws, args.seed)

    if args.noise is not None:
        inst = attach_noise(inst, _parse_noise(args.noise), args.p)
    elif args.p not in (None, 0.0) and args.family != "random":
        raise ModelError("--p without --noise (the default noise kernel is "
                         "a self-loop; say so explicitly if intended)")
    fileio.save(inst, args.out)
    doc = {"manifest": _manifest("gen", args, inst), "written": args.out}
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def _profile_doc(pf) -> dict:
    def num(x):
        return None if x == math.inf else x
    return {
        "index": pf.index,
        "name": pf.name,
        "potential": num(pf.potential),
        "congestion_pr": pf.congestion_pr,
        "b_pr": pf.b_pr,
        "congestion_ns": pf.congestion_ns,
        "b_ns": pf.b_ns,
        "gamma_pr": sorted(pf.gamma_pr),
        "gamma_ns": sorted(pf.gamma_ns),
        "delta": pf.delta,
        "q": num(pf.q),
        "amenability": num(pf.amenability),
        "unreached_pr": pf.unreached_pr,
        "unreached_ns": pf.unreached_ns,
    }


def _cmd_analyze(args) -> int:
    inst = fileio.load(args.instance)
    profiles = flaw_profiles(inst, addressed_only=args.addressed_only)
    doc = {
        "manifest": _manifest("analyze", args, inst),
        "n_states": inst.n_states,
        "m": inst.m,
        "p": inst.p,
        "flaws": [_profile_doc(pf) for pf in profiles],
        "b_ns_global": global_noise_bits(profiles),
        "b_pr_max": global_principal_bits(profiles),
    }
    if args.dot:
        graph = causality_graph(inst, args.dot_kernel)
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph.to_dot(inst.flaw_names))
    if args.format == "text":
        lines = [f"instance: {args.instance}  states={inst.n_states} "
                 f"m={inst.m} p={inst.p}"]
        for pf in doc["flaws"]:
            lines.append(
                f"  {pf['name']}: potential={pf['potential']} "
                f"b_pr={pf['b_pr']:.6g} b_ns={pf['b_ns']:.6g} "
                f"delta={pf['delta']} q={pf['q']:.6g} "
                f"amenability={pf['amenability']}")
        _emit(doc, args.out, as_text="\n".join(lines) + "\n")
    else:
        _emit(doc, args.out)
    return 0


def _cmd_certify(args) -> int:
    inst = fileio.load(args.instance)
    condition, cert = certify(inst, lam=args.lam)
    doc = {
        "manifest": _manifest("certify", args, inst),
        "certified": cert is not None,
        "threshold": condition.threshold,
        "slack": condition.slack,
        "sums": [{"flaw": r.name, "total": r.total, "ok": r.ok}
                 for r in condition.rows],
    }
    if cert is not None:
        doc["certificate"] = {
            "lambda": cert.lam,
            "lambda_star": cert.lam_star,
            "lambda_slack": cert.lam_slack,
            "B": cert.B,
            "xi": cert.xi,
            "delta_max": cert.delta_max,
            "m0": cert.m0,
            "x0": cert.x0,
            "work_ratio": cert.work_ratio(),
            "budgets": [{"s": s,
                         "distance": cert.distance_bound(s),
                         "steps": cert.step_bound(s)}
                        for s in (1.0, 2.0, 3.0)],
        }
    if args.format == "text":
        lines = [f"certified: {doc['certified']}  slack={doc['slack']:.6g}"]
        for row in doc["sums"]:
            lines.append(f"  {row['flaw']}: sum={row['total']:.6g} "
                         f"{'ok' if row['ok'] else 'FAIL'}")
        if cert is not None:
            c = doc["certificate"]
            lines.append(f"  lambda*={c['lambda_star']:.6f} B={c['B']} "
                         f"m0={c['m0']:.4f} x0={c['x0']:.4f}")
        _emit(doc, args.out, as_text="\n".join(lines) + "\n")
    else:
        _emit(doc, args.out)
    return 0 if cert is not None else 1


def _cmd_simulate(args) -> int:
    inst = fileio.load(args.instance)
    stats = monte_carlo(inst, args.trials, args.seed, args.budget)
    man = _manifest("simulate", args, inst)
    if args.out:
        lines = ["# manifest: " + json.dumps(man, sort_keys=True),
                 "trial,hit_step,censored"]
        for i, hit in enumerate(stats.hits):
            censored = hit is None
            lines.append(f"{i},{args.budget if censored else hit},"
                         f"{1 if censored else 0}")
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    summary = {
        "manifest": man,
        "trials": stats.trials,
        "budget": stats.budget,
        "censored": stats.censored,
        "mean_hit": None if math.isnan(stats.mean_hit()) else stats.mean_hit(),
        "tail": [[t, frac] for t, frac in stats.tail_table()],
    }
    cert = None
    if args.check:
        try:
            _, cert = certify(inst)
        except ModelError:
            cert = None
        summary["tail_check"] = tail_check(stats, cert)
    _emit(summary, args.summary)
    return 0


def _cmd_forensics(args) -> int:
    inst = fileio.load(args.instance)
    traj = run(inst, args.seed, args.budget, trial=args.trial)
    w = witness(traj)
    seq = break_sets(traj)
    bits = encode(seq.b_star[0], seq.lengths, inst.m)
    b0, lengths = decode(bits, inst.m)
    rebuilt = reconstruct_witness(seq, inst.priority)
    doc = {
        "manifest": _manifest("forensics", args, inst),
        "terminal": traj.terminal,
        "z": traj.z,
        "states": list(traj.states),
        "witness": [inst.flaw_names[f] for f in w],
        "b_star": [sorted(inst.flaw_names[f] for f in s) for s in seq.b_star],
        "lengths": list(seq.lengths),
        "encoded": bits.to01(),
        "encoded_hex": bits.hex(),
        "encoded_bits": len(bits),
        "expected_bits": encoded_length(inst.m, seq.z, len(seq.b_star[0])),
        "roundtrip_ok": (b0 == seq.b_star[0] and lengths == seq.lengths),
        "reconstruction_ok": rebuilt == w,
    }
    if args.format == "text":
        lines = [f"terminal={traj.terminal} z={traj.z}",
                 "states: " + " -> ".join(str(s) for s in traj.states),
                 "witness: " + (" ".join(doc["witness"]) or "(empty)"),
                 f"encoded [{len(bits)} bits]: {bits.to01()}",
                 f"roundtrip={doc['roundtrip_ok']} "
                 f"reconstruction={doc['reconstruction_ok']}"]
        _emit(doc, args.out, as_text="\n".join(lines) + "\n")
    else:
        _emit(doc, args.out)
    return 0


def _cmd_tree(args) -> int:
    if args.cap is None:
        args.cap = tree_cap()
    inst = fileio.load(args.instance)
    try:
        tree = truncated_tree(inst, args.x, cap=args.cap)
    except CapExceeded as exc:
        sys.stderr.write(f"flawchain tree: {exc}\n")
        return 2
    checks = stratification_row(inst, tree, arc_bound(inst))
    doc = {
        "manifest": _manifest("tree", args, inst),
        "x": tree.x,
        "n_leaves": tree.n_leaves,
        "mass": checks["mass"],
        "bad_mass": checks["bad_mass"],
        "prefix_entropy": checks["prefix_entropy"],
        "checks": checks,
    }
    if not args.no_leaves:
        doc["leaves"] = [{"prefix": list(leaf.prefix),
                          "prob": leaf.prob,
                          "bad": leaf.bad,
                          "absorbed": leaf.absorbed}
                         for leaf in tree.leaves]
    _emit(doc, args.out)
    return 0


def _cmd_audit(args) -> int:
    if args.delta_max < 1:
        raise ValueError(f"--delta-max must be at least 1, got {args.delta_max}")
    if args.noise_bits_max < 0:
        raise ValueError(f"--noise-bits-max must be at least 0, got "
                         f"{args.noise_bits_max}")
    report = inequality_audit(
        deltas=range(1, args.delta_max + 1),
        noise_bits=range(0, args.noise_bits_max + 1))
    doc = {
        "manifest": _manifest("audit", args),
        "checked": report.checked,
        "ok": report.ok,
        "failures": [{"check": f.check, "where": f.where,
                      "lhs": f.lhs, "rhs": f.rhs}
                     for f in report.failures],
    }
    _emit(doc, args.out)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flawchain",
        description="flaw-structured Markov systems: analyze, certify, "
                    "simulate, account")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gensub = gen.add_subparsers(dest="family", required=True)
    star = gensub.add_parser("star")
    star.add_argument("--k", type=int, required=True, help="spoke count")
    coloring = gensub.add_parser("coloring")
    coloring.add_argument("--edges", required=True,
                          help="comma-separated edges, e.g. 0-1,1-2")
    coloring.add_argument("--q", type=int, required=True)
    ksat = gensub.add_parser("ksat")
    ksat.add_argument("--vars", type=int, required=True)
    ksat.add_argument("--clause", action="append", required=True,
                      help="DIMACS literals, e.g. '1 -2'; repeatable")
    rand = gensub.add_parser("random")
    uniform = gensub.add_parser("uniform")
    for g in (rand, uniform):
        g.add_argument("--states", type=int, required=True)
        g.add_argument("--flaws", type=int, required=True)
        g.add_argument("--seed", type=int, required=True)
    for g in (star, coloring, ksat, rand, uniform):
        g.add_argument("--noise", default=None,
                       help="selfloop | uniform | greedy | point:STATE")
        g.add_argument("--p", type=float, default=0.0)
        g.add_argument("--out", required=True)
        g.set_defaults(func=_cmd_gen)

    analyze = sub.add_parser("analyze", help="per-flaw profiles")
    analyze.add_argument("instance")
    analyze.add_argument("--format", choices=("json", "text"), default="json")
    analyze.add_argument("--addressed-only", action="store_true",
                         dest="addressed_only",
                         help="congestion over addressing states only")
    analyze.add_argument("--dot", default=None, help="write a DOT causality graph")
    analyze.add_argument("--dot-kernel", choices=("principal", "noise"),
                         default="principal")
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(func=_cmd_analyze)

    cert = sub.add_parser("certify", help="check the certificate condition")
    cert.add_argument("instance")
    cert.add_argument("--lam", type=float, default=None,
                      help="use this lambda for budgets instead of lambda*")
    cert.add_argument("--format", choices=("json", "text"), default="json")
    cert.add_argument("--out", default=None)
    cert.set_defaults(func=_cmd_certify)

    sim = sub.add_parser("simulate", help="seeded Monte Carlo hitting times")
    sim.add_argument("instance")
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--budget", type=int, required=True)
    sim.add_argument("--check", action="store_true",
                     help="compare tails against certified budgets")
    sim.add_argument("--out", default=None, help="per-trial CSV path")
    sim.add_argument("--summary", default=None, help="JSON summary path")
    sim.set_defaults(func=_cmd_simulate)

    forensics = sub.add_parser("forensics",
                               help="witness, break sets and encoding of one run")
    forensics.add_argument("instance")
    forensics.add_argument("--seed", type=int, required=True)
    forensics.add_argument("--trial", type=int, default=0)
    forensics.add_argument("--budget", type=int, default=10_000)
    forensics.add_argument("--format", choices=("json", "text"), default="json")
    forensics.add_argument("--out", default=None)
    forensics.set_defaults(func=_cmd_forensics)

    tree = sub.add_parser("tree", help="exact stratum-truncated process tree")
    tree.add_argument("instance")
    tree.add_argument("--x", type=float, required=True)
    tree.add_argument("--cap", type=int, default=None,
                      help="leaf cap (default FLAWCHAIN_TREE_CAP or 10^7)")
    tree.add_argument("--no-leaves", action="store_true", dest="no_leaves")
    tree.add_argument("--out", default=None)
    tree.set_defaults(func=_cmd_tree)

    audit = sub.add_parser("audit", help="grid audit of the counting inequalities")
    audit.add_argument("--delta-max", type=int, default=64, dest="delta_max")
    audit.add_argument("--noise-bits-max", type=int, default=8,
                       dest="noise_bits_max")
    audit.add_argument("--out", default=None)
    audit.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, ForensicsError, ValueError, OSError) as exc:
        sys.stderr.write(f"flawchain {args.command}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
