"""The canonical reader of `fileio.loads` against the general path.

The general path is `from_dict(json.loads(text))`.  On every canonical
text the reader must build the same arrays and keep the text itself as
the instance's serialization; on every other text, including mutated
canonical ones, both paths must end the same way: the same digest, or
the same ModelError text.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from flawchain import (Distribution, ModelError, NoiseModel, attach_noise,
                       gen_random, validate_instance)
from flawchain import fileio
from flawchain.fileio import digest, dumps, from_dict, load, loads, save, to_dict

from test_arrays import _instances


def _general(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"not valid JSON: {exc}") from None
    return from_dict(doc)


def _outcome(read, text):
    try:
        inst = read(text)
    except ModelError as exc:
        return "error", str(exc)
    return "digest", digest(inst)


def _same_instance(a, b):
    for key in ("principal", "noise"):
        ka, kb = getattr(a, key), getattr(b, key)
        for arr in ("indptr", "indices", "probs"):
            x, y = getattr(ka, arr), getattr(kb, arr)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (key, arr)
    assert a.member.tobytes() == b.member.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    assert (a.n_states, a.priority, a.flaw_names, a.widths) == \
        (b.n_states, b.priority, b.flaw_names, b.widths)
    assert repr(a.p) == repr(b.p)
    assert a.initial == b.initial and type(a.initial) is type(b.initial)


def _theta(star9):
    return validate_instance(
        n_states=9, flaws=[{0}], priority=[0], principal=star9.principal,
        noise=star9.noise, p=0.25,
        initial=Distribution.from_pairs([(0, 0.5), (4, 0.5)]))


def _tiny_probabilities():
    """Probabilities printed in exponent form and with 17 digits."""
    third = 0.1 + 0.2                       # 0.30000000000000004
    rows = [[(1, 1e-05), (2, 1.0 - 1e-05)],
            [(1, 1.0)], [(2, 1.0)],
            [(0, 5e-324), (3, 1.0)],
            [(1, third), (2, 1.0 - third)]]
    return validate_instance(
        n_states=5, flaws=[{0, 3}, {4}], priority=[1, 0], principal=rows,
        noise=[[(0, 2.5e-08), (s, 1.0 - 2.5e-08)] if s in (2, 4) else [(s, 1.0)]
               for s in range(5)],
        p=1e-07, initial=4, flaw_names=["low", "high"])


def _canonical_instances(star9, star9_noisy, triangle3, path2):
    out = dict(_instances())
    out.update({"star9": star9, "star9_noisy": star9_noisy,
                "triangle3": triangle3, "path2": path2,
                "theta": _theta(star9), "tiny": _tiny_probabilities()})
    out.update({f"gen_random[{seed}]": gen_random(12, 3, seed=seed, p=0.1 * (seed % 4))
                for seed in range(20)})
    return out


def test_canonical_texts_read_into_equal_arrays(star9, star9_noisy, triangle3, path2):
    instances = _canonical_instances(star9, star9_noisy, triangle3, path2)
    assert "1e-05" in dumps(instances["tiny"]) and "5e-324" in dumps(instances["tiny"])
    for name, inst in instances.items():
        text = dumps(inst)
        fast = loads(text)
        assert fast.memo["text"] is text, name       # the canonical reader took it
        slow = _general(text)
        _same_instance(fast, slow)
        assert fileio._write(slow) == text, name
        assert dumps(fast) is text
        assert digest(fast) == hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_kernels_written_and_read_in_blocks(monkeypatch, star9_noisy, triangle3, block):
    monkeypatch.setattr(fileio, "BLOCK", block)
    for inst in (star9_noisy, triangle3, _tiny_probabilities(),
                 gen_random(30, 4, seed=1, p=0.2)):
        text = fileio._write(inst)
        assert text == json.dumps(to_dict(inst), sort_keys=True,
                                  separators=(",", ":")) + "\n"
        assert loads(text).memo["text"] is text


def test_a_canonical_file_digest_is_the_sha256_of_its_bytes(tmp_path, star9_noisy):
    path = tmp_path / "inst.json"
    save(star9_noisy, path)
    loaded = load(path)
    assert digest(loaded) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert "text" in loaded.memo
    _same_instance(loads(path.read_bytes()), loaded)     # bytes take the general path


def test_other_layouts_take_the_general_path(star9_noisy):
    text = dumps(star9_noisy)
    doc = to_dict(star9_noisy)
    shuffled = {**doc, "principal": doc["principal"][::-1]}
    variants = {
        "pretty": json.dumps(doc, sort_keys=True, indent=1),
        "spaced": json.dumps(doc, sort_keys=True),
        "unsorted keys": json.dumps(doc, separators=(",", ":")),
        "no newline": text[:-1],
        "rows reversed": json.dumps(shuffled, sort_keys=True, separators=(",", ":")) + "\n",
        "noise omitted": json.dumps({k: v for k, v in doc.items() if k != "noise"},
                                    sort_keys=True, separators=(",", ":")) + "\n",
        "target 1": text.replace("[[1,1.0]]", "[[1,1]]", 1),
    }
    for name, variant in variants.items():
        assert variant != text, name
        assert fileio._read_canonical(variant) is None, name
        inst = loads(variant)
        assert "text" not in inst.memo, name
        _same_instance(inst, _general(variant))


def test_a_non_canonical_header_is_read_but_not_kept_as_the_text(star9_noisy):
    text = dumps(star9_noisy)
    variant = text.replace('"p":0.2', '"p":0.20')
    inst = loads(variant)
    assert "text" not in inst.memo
    _same_instance(inst, _general(variant))
    assert dumps(inst) == text


def test_the_state_cap_applies_before_any_kernel_is_read(monkeypatch, star9):
    text = dumps(star9)

    def no_scan(span, n):
        raise AssertionError("kernel read past the cap")

    monkeypatch.setattr(fileio, "_scan_kernel", no_scan)
    monkeypatch.setenv("FLAWCHAIN_EXPLICIT_CAP", "8")
    with pytest.raises(ModelError, match="9 states exceed the explicit cap 8"):
        loads(text)


# ------------------------------------------------------------ mutations


def _small_texts(star9, triangle3):
    return [dumps(attach_noise(star9, NoiseModel.point(0), 0.2)),
            dumps(triangle3), dumps(_theta(star9)), dumps(_tiny_probabilities()),
            dumps(gen_random(5, 2, seed=3, p=0.3))]


NAMED = [
    ("[[0,", "[ [0,"), (",", ", "), ("\n", " \n"), ("}\n", "}"), (":", ": "),
    ("[0,[[", "[00,[["), ("[[1,", "[[01,"), ("[[1,", "[[+1,"), ("0.2", ".2"),
    ("0.2", "+0.2"), ("0.2", "2e-1"), ("0.2", "0.20000000000000001"),
    ("1.0]", "nan]"), ("1.0]", "NaN]"), ("1.0]", "Infinity]"), ("1.0]", "inf]"),
    ("1.0]", "1]"), ("1.0]", "1.00]"), ("1.0]", "1e0]"), ("1.0]", "-1.0]"),
    ("0.2", "NaN"), ('"initial":0', '"initial":0.0'), ('"initial":0', '"initial":-1'),
    ('"initial":0', '"initial":99'), ("[0,[[", "[-0,[["), ("[0,[[", "[9,[["),
    ('"states":9', '"states":8'), ('"states":9', '"states":10'),
    ('"name":"f1"', '"name":"f\\u0031"'), ('"members":[0]', '"members":[0,0]'),
    ('"members":[0]', '"members":[]'), ('"priority":["f1"]', '"priority":["f2"]'),
    (']]]],"priority"', ']]]]],"priority"'), (']]]],"priority"', ']]],"priority"'),
    (']]]],"priority"', ']]]]]],"priority"'), ('[[0,[[1', '[[[0,[[1'),
    ('"states":9}', '"states":9 }'), ('"states":9}', '"states":9,"zz":1}'),
    ('"states":9}', '"states":9}}'),
]


def _named_cases(star_text):
    out = []
    for old, new in NAMED:
        assert old in star_text, old
        out.append(star_text.replace(old, new, 1))
    doc = json.loads(star_text)
    out.append(json.dumps({**doc, "noise": doc["noise"][::-1]},
                          sort_keys=True, separators=(",", ":")) + "\n")
    out.append(json.dumps({**doc, "principal": [[s, pairs[::-1]] for s, pairs in
                                                doc["principal"]]},
                          sort_keys=True, separators=(",", ":")) + "\n")
    out.append(json.dumps({**doc, "principal": doc["principal"][:-1]},
                          sort_keys=True, separators=(",", ":")) + "\n")
    trick = {**doc, "flaws": [{"members": [0], "name": 'x,"noise":[[0,[[0,1.0]]]]'}],
             "priority": ['x,"noise":[[0,[[0,1.0]]]]']}
    out.append(json.dumps(trick, sort_keys=True, separators=(",", ":")) + "\n")
    return out


ALPHABET = '0123456789-+.eE[],:{}" \nnNaIif'


def _mutations(text, rng, count):
    out = []
    for _ in range(count):
        at = rng.randrange(len(text))
        kind = rng.choice(("edit", "insert", "delete"))
        char = rng.choice(ALPHABET)
        if kind == "edit":
            out.append(text[:at] + char + text[at + 1:])
        elif kind == "insert":
            out.append(text[:at] + char + text[at:])
        else:
            out.append(text[:at] + text[at + 1:])
    return out


@pytest.mark.parametrize("block", [fileio.BLOCK, 2])
def test_mutated_texts_end_the_same_on_both_paths(monkeypatch, star9, triangle3, block):
    monkeypatch.setattr(fileio, "BLOCK", block)
    rng = random.Random(20 + block)
    texts = _small_texts(star9, triangle3)
    cases = _named_cases(texts[0])
    for text in texts:
        cases += _mutations(text, rng, 80)
    kept = canonical = 0
    for case in cases:
        want = _outcome(_general, case)
        assert _outcome(loads, case) == want, case
        if want[0] == "digest":
            inst = loads(case)
            _same_instance(inst, _general(case))
            canonical += "text" in inst.memo
            kept += 1
    assert len(cases) > 400
    # a fair share of mutants still load, and some still are canonical
    assert kept > 40 and canonical > 10, (kept, canonical)


def test_scan_kernel_rejects_misshapen_spans():
    good = "[[0,[[1,0.5],[2,0.5]]],[1,[[1,1.0]]],[2,[[2,1.0]]]]"
    assert fileio._scan_kernel(good, 3) is not None
    # the layout only: stray brackets, row masses and the like are left
    # to the writer check and the validator
    for span in ("", "[]", "[[]]", good.replace("0.5", "x", 1), good.replace("0.5", "", 1),
                 good.replace("[[1,1.0]]", "[]"), good.replace("[2,[[2", "[5,[[2"),
                 good.replace("[[1,0.5]", "[[7,0.5]"), good.replace("[1,[[1", "[1,[[-1"),
                 good.replace("1.0", "inf", 1), good.replace("1.0", "nan", 1),
                 good.replace("1.0]]],[2", "1.0]]],[2,[[2,1.0]]],[3"), "[[0,[[0,1.0]]]]é"):
        assert fileio._scan_kernel(span, 3) is None, span
    kernel = fileio._scan_kernel(good, 3)
    assert kernel.indptr.tolist() == [0, 2, 3, 4]
    assert kernel.indices.tolist() == [1, 2, 1, 2]
    assert np.array_equal(kernel.probs, [0.5, 0.5, 1.0, 1.0])
