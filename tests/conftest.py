import os
import pathlib

import pytest

from flawchain import NoiseModel, attach_noise, gen_coloring, gen_star

# Child interpreters started by the tests (demos, the module entry point)
# import the package from this checkout as well.
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

# The four instances every module's tests keep coming back to.  Session
# scope: they are immutable and cheap to share.


@pytest.fixture(scope="session")
def star9():
    return gen_star(8)


@pytest.fixture(scope="session")
def star9_noisy(star9):
    # hub noise pins the chain at the flawed hub with probability p
    return attach_noise(star9, NoiseModel.point(0), 0.2)


@pytest.fixture(scope="session")
def triangle3():
    return gen_coloring([(0, 1), (1, 2), (0, 2)], 3, explicit=True)


@pytest.fixture(scope="session")
def path2():
    return gen_coloring([(0, 1), (1, 2)], 2, explicit=True)
