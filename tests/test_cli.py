import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest
from referencing import Registry, Resource

import flawchain
from flawchain import NoiseModel, attach_noise, gen_star
from flawchain.cli import main
from flawchain.fileio import digest, dumps, load, save

SCHEMA_DIR = pathlib.Path(flawchain.__file__).parent / "schemas"


def _registry():
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        doc = json.loads(path.read_text())
        res = Resource.from_contents(doc)
        # relative $refs resolve against the $id base "flawchain/"
        resources.append((f"flawchain/{path.name}", res))
        resources.append((doc["$id"], res))
    return Registry().with_resources(resources)


REGISTRY = _registry()


def check_schema(doc, name):
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    jsonschema.Draft202012Validator(schema, registry=REGISTRY).validate(doc)


def cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def noisy_file(tmp_path, star9_noisy):
    path = tmp_path / "noisy.json"
    save(star9_noisy, path)
    return str(path)


@pytest.fixture()
def path2_file(tmp_path, path2):
    path = tmp_path / "path2.json"
    save(path2, path)
    return str(path)


# -------------------------------------------------------------------- gen


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert flawchain.__version__ in capsys.readouterr().out


def test_gen_star_writes_canonical_file(tmp_path, capsys, star9_noisy):
    out = str(tmp_path / "star.json")
    rc, stdout, _ = cli(capsys, "gen", "star", "--k", "8",
                        "--noise", "point:0", "--p", "0.2", "--out", out)
    assert rc == 0
    doc = json.loads(stdout)
    assert doc["written"] == out
    assert doc["manifest"]["command"] == "gen"
    written = load(out)
    assert doc["manifest"]["instance_sha256"] == digest(written)
    # same canonical instance as building in process
    assert digest(written) == digest(star9_noisy)
    check_schema(json.loads(pathlib.Path(out).read_text()), "instance")


def test_gen_refuses_silent_noise(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    rc, _, err = cli(capsys, "gen", "star", "--k", "8", "--p", "0.2",
                     "--out", out)
    assert rc == 2
    assert "--noise" in err
    # the random family owns its p and may omit --noise
    rc, _, _ = cli(capsys, "gen", "random", "--states", "12", "--flaws", "3",
                   "--seed", "5", "--p", "0.2", "--out", out)
    assert rc == 0
    assert load(out).p == 0.2


def test_gen_coloring_and_ksat(tmp_path, capsys):
    cpath = str(tmp_path / "c.json")
    rc, _, _ = cli(capsys, "gen", "coloring", "--edges", "0-1,1-2",
                   "--q", "2", "--out", cpath)
    assert rc == 0
    inst = load(cpath)
    assert inst.n_states == 8
    assert inst.flaw_names == ("e0_1", "e1_2")
    kpath = str(tmp_path / "k.json")
    rc, _, _ = cli(capsys, "gen", "ksat", "--vars", "3",
                   "--clause", "1 2", "--clause", "-1 3", "--out", kpath)
    assert rc == 0
    assert load(kpath).flaw_names == ("c1", "c2")


def test_gen_uniform_family(tmp_path, capsys):
    out = str(tmp_path / "u.json")
    rc, _, _ = cli(capsys, "gen", "uniform", "--states", "24", "--flaws", "4",
                   "--seed", "9", "--out", out)
    assert rc == 0
    inst = load(out)
    assert inst.m == 4
    assert all(len(f) == 1 for f in inst.flaws)


def test_gen_rejects_bad_noise_spec(tmp_path, capsys):
    rc, _, err = cli(capsys, "gen", "star", "--k", "8", "--noise", "warp",
                     "--p", "0.1", "--out", str(tmp_path / "x.json"))
    assert rc == 2
    assert "unknown noise model" in err


# ---------------------------------------------------------------- analyze


def test_analyze_json(noisy_file, capsys):
    rc, stdout, _ = cli(capsys, "analyze", noisy_file)
    assert rc == 0
    doc = json.loads(stdout)
    check_schema(doc, "analysis")
    assert doc["m"] == 1
    assert doc["p"] == 0.2
    (pf,) = doc["flaws"]
    assert pf["potential"] == pytest.approx(3.121928094887362)
    assert pf["q"] == pytest.approx(0.1, abs=1e-12)
    assert doc["b_ns_global"] == 0.0
    assert doc["manifest"]["instance_sha256"] == digest(load(noisy_file))


def test_analyze_text_and_dot(noisy_file, tmp_path, capsys):
    dot = str(tmp_path / "g.dot")
    rc, stdout, _ = cli(capsys, "analyze", noisy_file, "--format", "text",
                        "--dot", dot)
    assert rc == 0
    assert "potential=" in stdout
    text = pathlib.Path(dot).read_text()
    assert text.startswith("digraph")
    assert "->" not in text   # the lone flaw cannot cause itself


def test_analyze_is_byte_deterministic(noisy_file, capsys):
    rc1, out1, _ = cli(capsys, "analyze", noisy_file)
    rc2, out2, _ = cli(capsys, "analyze", noisy_file)
    assert rc1 == rc2 == 0
    assert out1 == out2


# ---------------------------------------------------------------- certify


def test_certify_pass(noisy_file, capsys):
    rc, stdout, _ = cli(capsys, "certify", noisy_file)
    assert rc == 0
    doc = json.loads(stdout)
    check_schema(doc, "certificate")
    assert doc["certified"]
    cert = doc["certificate"]
    assert cert["lambda_star"] == pytest.approx(0.903906, abs=1e-5)
    assert cert["B"] == 4
    assert len(cert["budgets"]) == 3


def test_certify_fail_exits_one(path2_file, capsys):
    rc, stdout, _ = cli(capsys, "certify", path2_file)
    assert rc == 1
    doc = json.loads(stdout)
    check_schema(doc, "certificate")
    assert not doc["certified"]
    assert "certificate" not in doc
    assert all(not row["ok"] for row in doc["sums"])


def test_certify_bad_requests(noisy_file, capsys):
    rc, _, err = cli(capsys, "certify", noisy_file, "--lam", "0.5")
    assert rc == 2
    assert "does not pass" in err
    rc, _, _ = cli(capsys, "certify", str(pathlib.Path(noisy_file).parent / "absent.json"))
    assert rc == 2


def test_certify_text(noisy_file, capsys):
    rc, stdout, _ = cli(capsys, "certify", noisy_file, "--format", "text")
    assert rc == 0
    assert "certified: True" in stdout
    assert "lambda*=" in stdout


# --------------------------------------------------------------- simulate


def test_simulate_outputs(noisy_file, tmp_path, capsys):
    csv = tmp_path / "runs.csv"
    summary = tmp_path / "summary.json"
    args = ("simulate", noisy_file, "--trials", "50", "--seed", "3",
            "--budget", "40", "--out", str(csv), "--summary", str(summary))
    rc, _, _ = cli(capsys, *args)
    assert rc == 0
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    json.loads(lines[0][len("# manifest: "):])
    assert lines[1] == "trial,hit_step,censored"
    assert len(lines) == 52
    doc = json.loads(summary.read_text())
    check_schema(doc, "simulate")
    assert doc["trials"] == 50
    # reruns are byte for byte identical
    before = (csv.read_bytes(), summary.read_bytes())
    rc, _, _ = cli(capsys, *args)
    assert rc == 0
    assert (csv.read_bytes(), summary.read_bytes()) == before


def test_simulate_check_reports_tail_rows(noisy_file, capsys):
    rc, stdout, _ = cli(capsys, "simulate", noisy_file, "--trials", "200",
                        "--seed", "3", "--budget", "60", "--check")
    assert rc == 0
    doc = json.loads(stdout)
    check_schema(doc, "simulate")
    assert "tail_check" in doc
    assert doc["tail_check"]["guarantee"]
    for row in doc["tail_check"]["rows"]:
        assert row["status"] in ("ok", "violated", "inconclusive")
        assert row["status"] != "violated"


# -------------------------------------------------------------- forensics


def test_forensics_roundtrip(noisy_file, capsys):
    rc, stdout, _ = cli(capsys, "forensics", noisy_file, "--seed", "11")
    assert rc == 0
    doc = json.loads(stdout)
    check_schema(doc, "forensics")
    assert doc["terminal"] == "flawless_hit"
    assert doc["roundtrip_ok"]
    assert doc["reconstruction_ok"]
    assert doc["encoded_bits"] == doc["expected_bits"]
    assert len(doc["encoded"]) == doc["encoded_bits"]


def test_forensics_text(noisy_file, capsys):
    rc, stdout, _ = cli(capsys, "forensics", noisy_file, "--seed", "11",
                        "--format", "text")
    assert rc == 0
    assert "witness:" in stdout
    assert "roundtrip=True" in stdout


# ------------------------------------------------------------------- tree


def test_tree_output(noisy_file, capsys):
    rc, stdout, _ = cli(capsys, "tree", noisy_file, "--x", "4")
    assert rc == 0
    doc = json.loads(stdout)
    check_schema(doc, "tree")
    assert doc["n_leaves"] == 41
    assert len(doc["leaves"]) == 41
    assert doc["bad_mass"] == pytest.approx(0.04, abs=1e-12)
    rc, stdout, _ = cli(capsys, "tree", noisy_file, "--x", "4", "--no-leaves")
    assert rc == 0
    assert "leaves" not in json.loads(stdout)


def test_tree_cap_exit(noisy_file, capsys):
    rc, _, err = cli(capsys, "tree", noisy_file, "--x", "6", "--cap", "3")
    assert rc == 2
    assert "cap" in err


# ------------------------------------------------------------------ audit


def test_audit_small_grid(capsys):
    rc, stdout, _ = cli(capsys, "audit", "--delta-max", "4",
                        "--noise-bits-max", "2")
    assert rc == 0
    doc = json.loads(stdout)
    check_schema(doc, "audit")
    assert doc["ok"]
    assert doc["checked"] == 2 * 4 * 3 * 99
    assert doc["failures"] == []


# ------------------------------------------------------------- subprocess


def test_module_entry_point(tmp_path):
    out = tmp_path / "star.json"
    proc = subprocess.run(
        [sys.executable, "-m", "flawchain", "gen", "star", "--k", "4",
         "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["manifest"]["tool"] == "flawchain"
    assert load(out).n_states == 5


# ------------------------------------------------------ environment knobs


def test_bad_tree_cap_fails_only_the_tree(noisy_file, capsys, monkeypatch):
    monkeypatch.setenv("FLAWCHAIN_TREE_CAP", "abc")
    rc, _, err = cli(capsys, "audit", "--delta-max", "2", "--noise-bits-max", "1")
    assert rc == 0 and err == ""
    rc, _, err = cli(capsys, "tree", noisy_file, "--x", "2")
    assert rc == 2
    assert err == "flawchain tree: FLAWCHAIN_TREE_CAP must be a positive integer, got 'abc'\n"
    rc, _, _ = cli(capsys, "tree", noisy_file, "--x", "2", "--cap", "100")
    assert rc == 0
    monkeypatch.setenv("FLAWCHAIN_TREE_CAP", "3")
    rc, _, err = cli(capsys, "tree", noisy_file, "--x", "6")
    assert rc == 2 and "leaf cap 3 exceeded" in err


def test_bad_explicit_cap_names_the_variable(noisy_file, tmp_path, capsys,
                                             monkeypatch):
    monkeypatch.setenv("FLAWCHAIN_EXPLICIT_CAP", "lots")
    want = "FLAWCHAIN_EXPLICIT_CAP must be a positive integer, got 'lots'\n"
    rc, _, err = cli(capsys, "analyze", noisy_file)
    assert (rc, err) == (2, "flawchain analyze: " + want)
    rc, _, err = cli(capsys, "gen", "coloring", "--edges", "0-1", "--q", "3",
                     "--out", str(tmp_path / "c.json"))
    assert (rc, err) == (2, "flawchain gen: " + want)


def test_bad_knobs_do_not_break_import(tmp_path):
    env = {**os.environ, "FLAWCHAIN_TREE_CAP": "abc", "FLAWCHAIN_EXPLICIT_CAP": "x"}
    proc = subprocess.run(
        [sys.executable, "-m", "flawchain", "audit", "--delta-max", "2",
         "--noise-bits-max", "1"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
