"""Process plumbing shared by the workloads and the runner.

Every flawchain command runs in its own child interpreter (`child.py`),
one at a time, from the checkout root, with `src` on PYTHONPATH and the
numeric libraries held to one thread.  Paths in command arguments are
relative to the checkout root, so the manifests that embed them are
the same in every checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The host's speed drifts by a third for minutes at a time on a shared
# machine, and command times drift with it.  A fixed probe command, run
# (untimed) before every workload command, measures that speed; times
# are scaled to a host on which the probe takes REFERENCE_PROBE_S.  Only
# one probe runs before each command: a probe right after another one
# finds the interpreter and numpy warm and reads fast.
PROBE = (sys.executable, "-c", "import numpy")
REFERENCE_PROBE_S = 0.2


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLAWCHAIN_")}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = SRC
    return env


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload script."""

    name: str          # unique within the script, e.g. "forensics.3"
    argv: tuple        # flawchain arguments
    stdout: str        # file receiving the command's standard output
    ok_codes: tuple = (0,)


@dataclass
class Result:
    """Timings and record of one finished command."""

    command: Command
    rc: int
    wall_s: float      # spawn to exit
    setup_s: float     # spawn to `flawchain.cli` imported
    main_s: float      # inside cli.main
    cpu_s: float       # user plus system CPU time of the child
    rss_mb: float      # peak resident memory of the child
    error: str | None
    record: dict = field(repr=False)
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return (self.rc not in self.command.ok_codes or self.error is not None
                or bool(self.failures))


def spawn(cmd: Command, trace: bool) -> Result:
    """Run one command in a fresh interpreter and wait for it to exit."""
    record_path = os.path.join(WORK, cmd.name + ".record.json")
    if os.path.exists(os.path.join(ROOT, record_path)):
        os.remove(os.path.join(ROOT, record_path))
    argv = [sys.executable, os.path.join(HERE, "child.py"), record_path,
            "1" if trace else "0", *cmd.argv]
    with open(os.path.join(ROOT, cmd.stdout), "wb") as out, \
            open(os.path.join(ROOT, WORK, cmd.name + ".stderr"), "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.monotonic()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    try:
        with open(os.path.join(ROOT, record_path), encoding="utf-8") as fh:
            rec = json.load(fh)
    except (OSError, ValueError):
        rec = {}
    error = rec.get("error") if rec else f"no record (exit code {rc})"
    return Result(
        command=cmd, rc=rc, wall_s=t1 - t0,
        setup_s=rec.get("t_import", t1) - t0,
        main_s=rec.get("t_main1", t1) - rec.get("t_main0", t0),
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0, error=error, record=rec)


def probe() -> float:
    """Spawn-to-exit time of the probe command, which runs no flawchain code."""
    t0 = time.monotonic()
    subprocess.run(PROBE, cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.monotonic() - t0


def tool(script: str, *args: str) -> str:
    """Run a helper (untimed) in the child environment; return its stdout."""
    done = subprocess.run([sys.executable, script, *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{os.path.basename(script)} {' '.join(args)} "
                           f"exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def flawchain(*args: str) -> str:
    """An untimed flawchain command, for preparing inputs."""
    return tool("-m", "flawchain", *args)


def replay(instance: str, seed: int, budget: int, trials) -> dict:
    """trial index -> hit step by `run(..., trial=i)` (None when censored)."""
    out = tool(os.path.join(HERE, "replay.py"), instance, str(seed),
               str(budget), *map(str, trials))
    return {int(k): v for k, v in json.loads(out).items()}


def path(rel: str) -> str:
    return os.path.join(ROOT, rel)


def sha256(rel: str) -> str:
    h = hashlib.sha256()
    with open(path(rel), "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_json(rel: str):
    with open(path(rel), encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(rel: str):
    """(manifest, [(hit_step, censored), ...]) of a simulate CSV."""
    with open(path(rel), encoding="utf-8") as fh:
        first = fh.readline()
        header = fh.readline().strip()
        if not first.startswith("# manifest: ") or header != "trial,hit_step,censored":
            raise ValueError(f"{rel}: not a simulate CSV")
        rows = []
        for i, line in enumerate(fh):
            trial, hit, censored = line.strip().split(",")
            if int(trial) != i:
                raise ValueError(f"{rel}: row {i} has trial {trial}")
            rows.append((int(hit), censored == "1"))
    return json.loads(first[len("# manifest: "):]), rows
