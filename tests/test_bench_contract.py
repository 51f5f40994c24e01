"""The names the benchmark binds in the package.

`bench/spans.py` wraps the functions listed in its LAYERS table by name
and counts calls of the COUNTED ones as workload-identity counters.  A
renamed or moved function would silently read as zero calls there, so
every name it lists must resolve to a callable here.
"""

import importlib
import pathlib
import types

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # executed from its source: nothing is written under bench/
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"),
         module.__dict__)
    return module


def _resolve(name):
    layer, path = name.split(".", 1)
    owner = importlib.import_module(f"flawchain.{layer}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


def test_every_spanned_name_is_a_package_callable(spans):
    names = spans.span_names()
    assert len(names) == sum(len(fns) for fns in spans.LAYERS.values())
    for name in names:
        assert callable(_resolve(name)), name


def test_counted_hooked_and_scoped_names_are_spanned(spans):
    names = set(spans.span_names())
    assert set(spans.COUNTED) <= names
    assert set(spans.HOOKS) <= names
    assert set(spans.ONLY_IN) <= names
    for modules in spans.ONLY_IN.values():
        for module in modules:
            importlib.import_module(module)

