"""The names the benchmark binds in the package.

`bench/spans.py` wraps the functions listed in its LAYERS table by name
and counts calls of the COUNTED ones as workload-identity counters.  A
renamed or moved function would silently read as zero calls there, so
every name it lists must resolve to a callable here, and the spans it
reads off a traced run must keep their meaning.
"""

import contextlib
import importlib
import json
import pathlib
import sys
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


@contextlib.contextmanager
def _installed(spans, full):
    """A Tracer installed for the duration; install() rebinds names across
    the package, and every one is put back afterwards."""
    modules = {name: dict(vars(module)) for name, module in sys.modules.items()
               if name == "flawchain" or name.startswith("flawchain.")}
    members = []
    for name in spans.span_names():
        layer, *cls, attr = name.split(".")
        if cls:
            owner = getattr(sys.modules[f"flawchain.{layer}"], cls[0])
            members.append((owner, attr, vars(owner)[attr]))
    tracer = spans.Tracer()
    tracer.install(full=full)
    try:
        yield tracer
    finally:
        for name, before in modules.items():
            module = sys.modules[name]
            for key, value in before.items():
                if vars(module)[key] is not value:
                    setattr(module, key, value)
        for owner, attr, value in members:
            setattr(owner, attr, value)


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


def test_a_traced_tree_builds_once_and_makes_no_leaf(spans, monkeypatch,
                                                      tmp_path, star9_noisy):
    from flawchain import exact
    from flawchain.fileio import save
    path = tmp_path / "star.json"
    save(star9_noisy, path)
    built = []
    leaf = exact.Leaf
    monkeypatch.setattr(exact, "Leaf",
                        lambda *args, **kwargs: built.append(1) or leaf(*args, **kwargs))
    with _installed(spans, full=True) as tracer:
        rc = sys.modules["flawchain.cli"].main(
            ["tree", str(path), "--x", "8", "--no-leaves",
             "--out", str(tmp_path / "tree.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "tree.json").read_text())
    metrics = spans.layer_metrics([tracer.record()])
    for name in ("truncated_tree", "bad_mass", "prefix_entropy"):
        assert metrics[f"exact.{name}.calls"] == 1, name
    assert metrics["exact.leaves"] == doc["n_leaves"] == 865
    assert metrics["exact.errors"] == 0
    assert built == []


def test_certify_keeps_the_identity_call_counts(spans, tmp_path, star9_noisy):
    # bench/run.py --compare refuses runs whose identity counters differ,
    # so folding the three lambda = 1 evaluations into one would make every
    # earlier run incomparable
    from flawchain.fileio import save
    path = tmp_path / "star.json"
    save(star9_noisy, path)
    with _installed(spans, full=False) as tracer:
        rc = sys.modules["flawchain.cli"].main(
            ["certify", str(path), "--out", str(tmp_path / "cert.json")])
    assert rc == 0
    assert tracer.calls == {"certifier.condition_report": 24, "fileio.dumps": 1}
