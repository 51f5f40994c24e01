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

`loads` first tries the canonical reader.  It walks the sorted keys of a
text laid out as `dumps` writes it, decodes the header values with the
JSON scanner, checks the state count against the explicit cap, and then
reads each kernel straight into CSR arrays: a kernel is a quote-free
span of brackets, commas and numbers, so row boundaries come from the
bracket positions and every number is parsed in one C-level pass.  A
kernel is accepted only when the writer reproduces its span byte for
byte, and `from_dict` then checks the document as it checks any other.
When the header is canonical as well, the text is exactly `dumps` of the
instance and is kept as its memoized serialization, so the digest of a
canonical file is the sha256 of its own bytes.  Every other text
(pretty-printed, rows in any order, omitted rows, `1` for `1.0`, ...)
goes through `json.loads` and `from_dict`; both paths give the same
instance, or the same ModelError.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import partial

import numpy as np

from .core import (Distribution, ExplicitInstance, Kernel, ModelError,
                   check_explicit_cap, require_explicit, validate_instance)

FORMAT = "flawchain-instance-v1"
_KERNELS = ("noise", "principal")

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


BLOCK = 4096   # rows per piece of kernel text; bounds the writer's token arrays


def _kernel_pieces(kernel: Kernel, numerals, heads):
    """`_compact` of the kernel's `to_dict` rows, written from the arrays
    in pieces of BLOCK rows.

    Every entry becomes five tokens: an opener (",[" inside a row, or
    the row's "[s,[[" head), target, ",", probability repr and a closer
    ("]", or "]]]" at the row's end).  Rows are never empty.  `numerals`
    and `heads` hold every state's str and row head.
    """
    indptr = kernel.indptr
    yield "["
    for lo in range(0, len(kernel), BLOCK):
        hi = min(lo + BLOCK, len(kernel))
        a, b = indptr[lo], indptr[hi]
        values, inverse = np.unique(kernel.probs[a:b], return_inverse=True)
        tokens = np.empty((b - a, 5), dtype=object)
        tokens[:, 0] = ",["
        tokens[indptr[lo:hi] - a, 0] = heads[lo:hi]
        tokens[:, 1] = numerals[kernel.indices[a:b]]
        tokens[:, 2] = ","
        tokens[:, 3] = np.array([repr(v) for v in values.tolist()], dtype=object)[inverse]
        tokens[:, 4] = "]"
        tokens[indptr[lo + 1:hi + 1] - a - 1, 4] = "]]]"
        yield "".join(tokens.ravel().tolist())
    yield "]"


def _numerals(n: int):
    """Every state's str and kernel row head, for `_kernel_pieces`."""
    numerals = np.array([str(s) for s in range(n)], dtype=object)
    heads = ",[" + numerals + ",[["
    heads[0] = heads[0][1:]
    return numerals, heads


def _header_fields(instance: ExplicitInstance) -> dict:
    return {key: _compact(value) for key, value in _header(instance).items()}


def _write(instance: ExplicitInstance) -> str:
    fields = _header_fields(instance)
    numerals, heads = _numerals(instance.n_states)
    for key in _KERNELS:
        fields[key] = "".join(_kernel_pieces(getattr(instance, key), numerals, heads))
    return "{" + ",".join(f"{_compact(key)}:{fields[key]}"
                          for key in sorted(fields)) + "}\n"


def dumps(instance: ExplicitInstance) -> str:
    """Canonical text: `json.dumps(to_dict(instance), sort_keys=True,
    separators=(",", ":"))` plus a newline, memoized on the instance."""
    text = instance.memo.get("text") if instance.explicit else None
    if text is None:
        text = instance.memo["text"] = _write(instance)
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
    n, widths = _state_count(doc["states"])

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


def _state_count(states):
    """(state count, widths or None) of a `states` field, checked against
    the explicit cap."""
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
    check_explicit_cap(n)
    return n, widths


def _kernel_in(entries, n, label) -> Kernel:
    """Kernel of [state, [[target, prob], ...]] rows in any order; states
    without a row keep a unit self-loop.  A Kernel (the canonical reader's)
    is taken as it is."""
    if isinstance(entries, Kernel):
        return entries
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
    return Kernel.from_rows(n, sources, lengths, targets, probs)


_KEYS = ("flaws", "format", "initial", "noise", "p", "principal", "priority",
         "states")
_decode = json.JSONDecoder().raw_decode


def _split(text: str):
    """The header values of a text laid out as `dumps` writes it, and the
    (start, end) span of every value.  None when the keys, separators or
    ending differ."""
    doc, spans, pos = {}, {}, 0
    for key in _KEYS:
        head = f'{"," if pos else "{"}"{key}":'
        if not text.startswith(head, pos):
            return None
        pos += len(head)
        if key in _KERNELS:
            end = text.find('"', pos) - 1    # a kernel span holds no quote
            if end < pos:
                return None
        else:
            try:
                doc[key], end = _decode(text, pos)
            except json.JSONDecodeError:
                return None
        spans[key], pos = (pos, end), end
    return (doc, spans) if text.endswith("}\n") and pos == len(text) - 2 else None


def _scan_kernel(span: str, n: int):
    """Kernel of a span "[[0,[[t,p],...]],...,[n-1,[[t,p],...]]]" with
    finite numbers and targets in 0..n-1, or None when the span is not
    laid out so.

    Inside the outer bracket, row s reads "[s,[[t,p],[t,p],...]]": 2 + len
    opening brackets, of which only its "[[" are adjacent, so the "[["
    pairs mark the rows and the bracket counts between them give the row
    lengths.  With the brackets deleted the span is a comma-separated list
    of numbers: per row s, then its (target, prob) pairs.
    """
    if not (span.isascii() and span.startswith("[[") and span.endswith("]")):
        return None
    raw = span.encode("ascii")
    opens = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("["))[1:]
    starts = np.flatnonzero(np.diff(opens) == 1) - 1
    lengths = np.diff(np.append(starts, len(opens))) - 2
    if len(lengths) != n or starts[0] != 0 or lengths.min() < 1:
        return None
    try:
        values = np.fromstring(raw.translate(None, b"[]"), sep=",")
    except ValueError:
        return None
    per_row = 1 + 2 * lengths
    state_at = np.cumsum(per_row) - per_row
    if len(values) != per_row.sum() or not np.isfinite(values).all() or (
            not np.array_equal(values[state_at], np.arange(n))):
        return None
    pairs = np.delete(values, state_at).reshape(-1, 2)
    if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= n:
        return None
    return Kernel.from_entries(lengths, pairs[:, 0].astype(np.int64), pairs[:, 1])


def _spells(text: str, start: int, end: int, pieces) -> bool:
    """Whether text[start:end] is the concatenation of `pieces`."""
    for piece in pieces:
        if not text.startswith(piece, start, end):
            return False
        start += len(piece)
    return start == end


def _read_canonical(text: str):
    """The instance of a text laid out as `dumps` writes it, or None.

    The kernels are accepted only when the writer reproduces their spans
    byte for byte, so the document handed to `from_dict` is the one
    `json.loads` would give, with the kernels already built: any
    ModelError it raises is the general path's.  The text is memoized as
    the serialization only when the header is canonical too.
    """
    split = _split(text)
    if split is None:
        return None
    doc, spans = split
    try:
        n, _ = _state_count(doc["states"])
    except ModelError:
        return None
    numerals, heads = _numerals(n)
    for key in _KERNELS:
        kernel = _scan_kernel(text[slice(*spans[key])], n)
        if kernel is None or not _spells(text, *spans[key],
                                         _kernel_pieces(kernel, numerals, heads)):
            return None
        doc[key] = kernel
    instance = from_dict(doc)
    if all(field == text[slice(*spans[key])]
           for key, field in _header_fields(instance).items()):
        instance.memo["text"] = text
    return instance


def loads(text: str) -> ExplicitInstance:
    """Instance of a document text: canonical texts through the canonical
    reader, any other through `json.loads` and `from_dict`."""
    instance = _read_canonical(text) if isinstance(text, str) else None
    if instance is not None:
        return instance
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
    """sha256 of the canonical serialization (of the file's own text, for
    an instance loaded from a canonical file)."""
    return hashlib.sha256(dumps(instance).encode("utf-8")).hexdigest()
