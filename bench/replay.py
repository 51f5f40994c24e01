"""Replay single trials of a seeded simulation, for the output checks.

    python3 bench/replay.py INSTANCE SEED BUDGET TRIAL [TRIAL ...]

Prints a JSON object mapping each trial index to
`run(instance, SEED, BUDGET, trial=i).hit_step` (null when censored).
"""

import json
import sys

from flawchain import fileio
from flawchain.simulator import run


def main() -> int:
    path, seed, budget, *trials = sys.argv[1:]
    inst = fileio.load(path)
    hits = {t: run(inst, int(seed), int(budget), trial=int(t)).hit_step
            for t in trials}
    json.dump(hits, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
