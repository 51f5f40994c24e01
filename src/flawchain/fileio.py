"""Instance files: canonical JSON serialization of the explicit flavor.

Document layout (format tag "flawchain-instance-v1"):

    states     int count, or {"widths": [w0, w1, ...]} for assignment
               spaces (count = product, mixed-radix indexing, last
               variable fastest)
    flaws      [{"name": str, "members": [state, ...]}, ...]
    priority   flaw names, highest priority first
    principal  [[state, [[target, prob], ...]], ...] sparse rows
    noise      same shape; omitted rows default to unit self-loops
    p          mix probability
    initial    state, or {"theta": [[state, prob], ...]}

Canonical form sorts rows by source state and supports by target state;
`dumps` always emits it, so equal instances serialize to equal bytes and
the digest is well defined.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import partial

import numpy as np

from .core import (Distribution, ExplicitInstance, Kernel, ModelError,
                   explicit_cap, require_explicit, validate_instance)

FORMAT = "flawchain-instance-v1"

_compact = partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _header(instance: ExplicitInstance) -> dict:
    """Every document field but the two kernels."""
    require_explicit(instance, "serialization to files")
    if isinstance(instance.initial, Distribution):
        initial = {"theta": [[s, pr] for s, pr in instance.initial.support]}
    else:
        initial = instance.initial
    return {
        "format": FORMAT,
        "states": ({"widths": list(instance.widths)} if instance.widths
                   else instance.n_states),
        "flaws": [{"name": name, "members": np.flatnonzero(col).tolist()}
                  for name, col in zip(instance.flaw_names, instance.member.T)],
        "priority": [instance.flaw_names[i] for i in instance.priority],
        "p": instance.p,
        "initial": initial,
    }


def to_dict(instance: ExplicitInstance) -> dict:
    doc = _header(instance)
    for key in ("principal", "noise"):
        doc[key] = [[s, [[t, pr] for t, pr in row.support]]
                    for s, row in enumerate(getattr(instance, key))]
    return doc


def _kernel_text(kernel: Kernel) -> str:
    """`_compact` of the kernel's `to_dict` rows, written from the arrays.

    Every entry becomes five tokens: an opener (",[" inside a row, or
    the row's "[s,[[" head), target, ",", probability repr and a closer
    ("]", or "]]]" at the row's end).  Rows are never empty.
    """
    n, indptr = len(kernel), kernel.indptr
    values, inverse = np.unique(kernel.probs, return_inverse=True)
    heads = np.array([f",[{s},[[" for s in range(n)], dtype=object)
    heads[0] = heads[0][1:]
    tokens = np.empty((len(kernel.indices), 5), dtype=object)
    tokens[:, 0] = ",["
    tokens[indptr[:-1], 0] = heads
    tokens[:, 1] = np.array([str(s) for s in range(n)], dtype=object)[kernel.indices]
    tokens[:, 2] = ","
    tokens[:, 3] = np.array([repr(v) for v in values.tolist()], dtype=object)[inverse]
    tokens[:, 4] = "]"
    tokens[indptr[1:] - 1, 4] = "]]]"
    return "[" + "".join(tokens.ravel().tolist()) + "]"


def dumps(instance: ExplicitInstance) -> str:
    """Canonical text: `json.dumps(to_dict(instance), sort_keys=True,
    separators=(",", ":"))` plus a newline, memoized on the instance."""
    text = instance.memo.get("text") if instance.explicit else None
    if text is None:
        fields = {key: _compact(value) for key, value in _header(instance).items()}
        fields["principal"] = _kernel_text(instance.principal)
        fields["noise"] = _kernel_text(instance.noise)
        text = instance.memo["text"] = "{" + ",".join(
            f"{_compact(key)}:{fields[key]}" for key in sorted(fields)) + "}\n"
    return text


def _array(values, ndim, what) -> np.ndarray:
    """A JSON list of numbers (ndim 1) or of number pairs (ndim 2)."""
    if isinstance(values, list) and not values:
        return np.zeros(0 if ndim == 1 else (0, 2))
    try:
        arr = np.array(values) if isinstance(values, list) else None
    except (ValueError, TypeError):
        arr = None
    if (arr is None or arr.ndim != ndim or arr.dtype.kind not in "if"
            or (ndim == 2 and arr.shape[1] != 2)):
        shape = "a list of integers" if ndim == 1 else "[[state, prob], ...] pairs"
        raise ModelError(f"{what} must be {shape}")
    return arr


def _integer_array(arr, what) -> np.ndarray:
    if arr.dtype.kind == "f":
        if not np.all(np.floor(arr) == arr):
            raise ModelError(f"{what} must be integers")
        if np.any(np.abs(arr) >= 2.0 ** 62):
            raise ModelError(f"{what} holds integers out of range")
    return arr.astype(np.int64)


def _integers(values, what) -> np.ndarray:
    return _integer_array(_array(values, 1, what), what)


def _pairs(items, what):
    """[[int, number], ...] as (int64 array, float64 array)."""
    arr = _array(items, 2, what)
    return (_integer_array(arr[:, 0], f"{what} states"),
            arr[:, 1].astype(np.float64))


def _integer(value, what) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise ModelError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _number(value, what) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelError(f"{what} must be a number, got {value!r}")
    return float(value)


def from_dict(doc: dict) -> ExplicitInstance:
    """Check a parsed instance document and build the instance from it.

    Every malformed field raises ModelError.  The state count is checked
    against the explicit cap before anything of that size is allocated.
    """
    if not isinstance(doc, dict):
        raise ModelError("instance document must be a JSON object")
    if doc.get("format", FORMAT) != FORMAT:
        raise ModelError(f"unknown format tag {doc.get('format')!r}")
    for key in ("states", "flaws", "priority", "principal", "p", "initial"):
        if key not in doc:
            raise ModelError(f"missing field {key!r}")

    states = doc["states"]
    widths = None
    if isinstance(states, dict):
        widths = tuple(_integers(states.get("widths"), "states.widths").tolist())
        if not widths or min(widths) < 1:
            raise ModelError("states.widths must be a nonempty list of "
                             "positive integers")
        n = math.prod(widths)
    else:
        n = _integer(states, "states")
    if n < 1:
        raise ModelError(f"state count {n} must be positive")
    cap = explicit_cap()
    if n > cap:
        raise ModelError(f"{n} states exceed the explicit cap {cap} "
                         f"(FLAWCHAIN_EXPLICIT_CAP)")

    if not isinstance(doc["flaws"], list):
        raise ModelError("flaws must be a list of {name, members} objects")
    names, members = [], []
    for entry in doc["flaws"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and "members" in entry):
            raise ModelError(f"flaws must be {{name, members}} objects with a "
                             f"string name, got {entry!r}")
        names.append(entry["name"])
        members.append(_integers(entry["members"], f"flaw {entry['name']} members"))
    if not isinstance(doc["priority"], list):
        raise ModelError("priority must be a list of flaw names")
    try:
        priority = [names.index(nm) for nm in doc["priority"]]
    except ValueError as exc:
        raise ModelError(f"priority names unknown: {exc}") from None

    principal = _kernel_in(doc["principal"], n, "principal")
    noise = _kernel_in(doc.get("noise") or [], n, "noise")

    initial = doc["initial"]
    if isinstance(initial, dict):
        if "theta" not in initial:
            raise ModelError("initial must be a state or {\"theta\": "
                             "[[state, prob], ...]}")
        states, probs = _pairs(initial["theta"], "initial theta")
        initial = Distribution.from_pairs(zip(states.tolist(), probs.tolist()),
                                          where="initial distribution")
    else:
        initial = _integer(initial, "initial")

    return validate_instance(
        n_states=n, flaws=members, priority=priority, principal=principal,
        noise=noise, p=_number(doc["p"], "p"), initial=initial,
        flaw_names=names, widths=widths)


def _kernel_in(entries, n, label) -> Kernel:
    """Kernel of [state, [[target, prob], ...]] rows in any order; states
    without a row keep a unit self-loop."""
    if not isinstance(entries, list):
        raise ModelError(f"{label} must be a list of rows")
    sources, lengths, pairs = [], [], []
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[1], list)):
            raise ModelError(f"{label} rows must be [state, [[target, prob], ...]] "
                             f"entries, got {entry!r}")
        sources.append(entry[0])
        lengths.append(len(entry[1]))
        pairs += entry[1]
    sources = _integers(sources, f"{label} row states")
    targets, probs = _pairs(pairs, f"{label} rows")
    junk = (sources < 0) | (sources >= n)
    if junk.any():
        raise ModelError(f"{label} rows for unknown states "
                         f"{sorted(sources[junk].tolist())}")
    repeated = np.flatnonzero(np.bincount(sources, minlength=n) > 1)
    if len(repeated):
        raise ModelError(f"{label} has more than one row for states "
                         f"{repeated.tolist()}")
    given = np.zeros(n, dtype=bool)
    given[sources] = True
    # unit self-loops where no row is given; each given row goes to its slot
    row_len = np.ones(n, dtype=np.int64)
    row_len[sources] = lengths
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(row_len, out=indptr[1:])
    all_targets = np.empty(indptr[-1], dtype=np.int64)
    all_probs = np.empty(indptr[-1])
    defaults = np.flatnonzero(~given)
    all_targets[indptr[defaults]] = defaults
    all_probs[indptr[defaults]] = 1.0
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    pos = np.repeat(indptr[sources] - starts, lengths) + np.arange(len(targets))
    all_targets[pos] = targets
    all_probs[pos] = probs
    return Kernel.from_entries(row_len, all_targets, all_probs)


def loads(text: str) -> ExplicitInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"not valid JSON: {exc}") from None
    return from_dict(doc)


def save(instance: ExplicitInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(instance))


def load(path) -> ExplicitInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def digest(instance: ExplicitInstance) -> str:
    """sha256 of the canonical serialization."""
    return hashlib.sha256(dumps(instance).encode("utf-8")).hexdigest()
