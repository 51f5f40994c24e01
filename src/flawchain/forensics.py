"""Forensic accounting of bad prefixes.

A trajectory's bad prefix (states s_1..s_Z flawed, step Z landing on the
first flawless state, or the whole observed run when censored) is
described by its witness w_1..w_Z of addressed flaws.  Break sets track
where each witness entry entered the state: B_0 holds the flaws present
initially, B_i the flaws introduced by step i (a flaw surviving its own
addressing counts as reintroduced).  Flaws that vanish collaterally
before being addressed (O_i) or outlive the horizon unaddressed (N_i)
are discarded; what remains, the starred sets B_i*, is in one-to-one
correspondence with the witness and reconstructs it exactly.

The starred sets compress losslessly: m bits of membership for B_0* plus
a unary block per step give m + 2Z - |B_0*| bits total, and decoding
stops by itself when the running count |B_0*| + sum |B_i*| - i first
returns to zero.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass


class ForensicsError(ValueError):
    pass


@dataclass(frozen=True)
class Bits:
    """An immutable bit string, most significant bit first."""

    bits: tuple

    @classmethod
    def from01(cls, text: str) -> "Bits":
        if any(c not in "01" for c in text):
            raise ForensicsError(f"not a bit string: {text!r}")
        return cls(tuple(1 if c == "1" else 0 for c in text))

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def to_bytes(self) -> bytes:
        """Length-prefixed buffer: a 4-byte big-endian bit count, then the
        bits packed MSB-first with zero padding in the final byte."""
        out = bytearray(struct.pack(">I", len(self.bits)))
        acc = 0
        filled = 0
        for b in self.bits:
            acc = (acc << 1) | b
            filled += 1
            if filled == 8:
                out.append(acc)
                acc = filled = 0
        if filled:
            out.append(acc << (8 - filled))
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bits":
        if len(data) < 4:
            raise ForensicsError("buffer too short for a length prefix")
        (count,) = struct.unpack(">I", data[:4])
        payload = data[4:]
        if len(payload) * 8 < count:
            raise ForensicsError("buffer shorter than its declared bit count")
        bits = []
        for i in range(count):
            byte = payload[i // 8]
            bits.append((byte >> (7 - i % 8)) & 1)
        return cls(tuple(bits))

    def hex(self) -> str:
        return self.to_bytes().hex()

    def __len__(self):
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __add__(self, other) -> "Bits":
        return Bits(self.bits + other.bits)


def witness(trajectory) -> tuple:
    """Addressed flaws over the bad prefix, w_1..w_Z.  Empty when the
    trajectory started flawless."""
    return tuple(trajectory.flaws[: trajectory.z])


@dataclass(frozen=True)
class BreakSequence:
    """Break sets of one bad prefix.

    `b_star` has Z + 1 entries: indices 0..Z-1 are computed and index Z
    is structurally empty (nothing introduced by the final step can be
    addressed inside the prefix).  `raw`, `collateral` and `neglected`
    keep the unstarred B_i, O_i and N_i for indices 0..Z-1.  `lengths`
    mirrors b_star element counts and is what the encoder consumes.
    """

    z: int
    b_star: tuple
    raw: tuple
    collateral: tuple
    neglected: tuple
    lengths: tuple


def break_sets(trajectory) -> BreakSequence:
    """Compute the break sequence of a trajectory's bad prefix.

    Needs lookahead over the whole prefix: membership in O_i and N_i is
    decided relative to the horizon t = Z, with the censored case (no
    flawless state observed) using the observed end as horizon.
    """
    inst = trajectory.instance
    z = trajectory.z
    if len(trajectory.states) < z + 1:
        raise ForensicsError("trajectory too short for its bad prefix")
    present = [frozenset(inst.present(s)) for s in trajectory.states[: z + 1]]
    w = list(trajectory.flaws[:z])

    if z == 0:
        b0 = present[0]
        return BreakSequence(z=0, b_star=(frozenset(),), raw=(b0,),
                             collateral=(frozenset(),), neglected=(b0,),
                             lengths=(0,))

    raw = [present[0]]
    for i in range(1, z):
        carried = present[i - 1] - {w[i - 1]}
        raw.append(present[i] - carried)

    # One backward sweep: before index i is decided, next_addressed[f]
    # is the first step in [i+1, Z] addressing f and next_absent[f] the
    # first prefix index in [i+1, Z] without f (never = none).  O_i takes
    # the flaws that vanish before they are addressed, N_i those that
    # neither vanish nor are addressed.
    never = z + 1
    next_addressed = [never] * inst.m
    next_absent = [never] * inst.m
    coll = [None] * z
    negl = [None] * z
    star = [None] * z
    for i in range(z - 1, -1, -1):
        next_addressed[w[i]] = i + 1
        for f in range(inst.m):
            if f not in present[i + 1]:
                next_absent[f] = i + 1
        o = frozenset(f for f in raw[i] if next_absent[f] < next_addressed[f])
        n = frozenset(f for f in raw[i]
                      if next_absent[f] == never and next_addressed[f] == never)
        coll[i] = o
        negl[i] = n
        star[i] = raw[i] - o - n
    star.append(frozenset())  # index Z is vacuous
    lengths = tuple(len(s) for s in star)
    return BreakSequence(z=z, b_star=tuple(star), raw=tuple(raw),
                         collateral=tuple(coll), neglected=tuple(negl),
                         lengths=lengths)


def reconstruct_witness(break_seq: BreakSequence, priority) -> tuple:
    """Replay the witness from starred break sets alone.

    Carries the eligible set E_i: E_1 = B_0*, each step removes the
    highest-priority member as w_i and merges B_i* in.  A consistent
    sequence drains E exactly at step Z; anything else is malformed.
    """
    rank = {flaw: pos for pos, flaw in enumerate(priority)}
    eligible = set(break_seq.b_star[0])
    out = []
    for i in range(1, break_seq.z + 1):
        if not eligible:
            raise ForensicsError(f"malformed break sequence: no eligible flaw "
                                 f"at step {i} of {break_seq.z}")
        w = min(eligible, key=lambda f: rank[f])
        out.append(w)
        eligible.discard(w)
        eligible |= break_seq.b_star[i]
    if eligible:
        raise ForensicsError(f"malformed break sequence: {sorted(eligible)} "
                             f"left after step {break_seq.z}")
    return tuple(out)


def encode(b0_star, lengths, m: int) -> Bits:
    """Serialize (B_0*, |B_1*|..|B_Z*|) into m + 2Z - |B_0*| bits.

    Layout: m membership bits for B_0* (flaw index 0 first), then one
    block 1^{|B_i*|} 0 per step i = 1..Z.  The running-count invariant
    (strictly positive before index Z, zero exactly there) must hold or
    the stream would not decode; violations are rejected.
    """
    b0 = frozenset(int(f) for f in b0_star)
    lengths = tuple(int(c) for c in lengths)
    if not lengths:
        raise ForensicsError("lengths must at least carry |B_0*|")
    if any(c < 0 for c in lengths):
        raise ForensicsError("negative break-set size")
    if lengths[0] != len(b0):
        raise ForensicsError(f"lengths[0] = {lengths[0]} but |B_0*| = {len(b0)}")
    if any(f < 0 or f >= m for f in b0):
        raise ForensicsError(f"B_0* mentions flaws outside 0..{m - 1}")
    z = len(lengths) - 1
    count = lengths[0]
    for j in range(1, z + 1):
        if count == 0:
            raise ForensicsError(f"running count zero before step {j} of {z}")
        count += lengths[j] - 1
    if count != 0:
        raise ForensicsError(f"running count ends at {count}, not zero")

    bits = [1 if i in b0 else 0 for i in range(m)]
    for c in lengths[1:]:
        bits.extend([1] * c)
        bits.append(0)
    return Bits(tuple(bits))


def decode(bits: Bits, m: int) -> tuple:
    """Inverse of `encode`: returns (B_0*, lengths).

    Reads m membership bits, then unary blocks while the running count
    stays positive; the count reaching zero ends the stream.  Leftover
    bits past that point, or a stream ending mid-block, are errors.
    """
    seq = tuple(bits)
    if len(seq) < m:
        raise ForensicsError(f"stream of {len(seq)} bits cannot hold {m} "
                             f"membership bits")
    b0 = frozenset(i for i in range(m) if seq[i])
    lengths = [len(b0)]
    count = len(b0)
    pos = m
    while count > 0:
        run = 0
        while True:
            if pos >= len(seq):
                raise ForensicsError("stream exhausted before the running "
                                     "count returned to zero")
            bit = seq[pos]
            pos += 1
            if bit == 0:
                break
            run += 1
        lengths.append(run)
        count += run - 1
    if pos != len(seq):
        raise ForensicsError(f"{len(seq) - pos} trailing bits after the "
                             f"stream terminated")
    return b0, tuple(lengths)


def encoded_length(m: int, z: int, b0_size: int) -> int:
    """The exact encoded size in bits."""
    return m + 2 * z - b0_size
