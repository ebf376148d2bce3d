"""Encoder and decoder for the weight-stacked codes, plus the transmit-side
bit swap that spreads consecutive 1s before a word enters the channel.

Both directions are one rule over word matrices: the message value selects a
codebook row, whose parity body is unranked from the weight-stacked list, and
decoding ranks the received parity body back to a row.  Decoding inverts the
swap, recomputes the weight-parity bit, and either recovers the message from
the parity section (message bit in error, or no error) or returns the
received message bits verbatim (parity in error).  The single-word encode()
and decode() are one-row calls into the same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bits import as_bits, decimal_value
from .codebook import Codebook, CodeSpec, rank_stack, stack_codewords, value_bits


def swap_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """1-based position pairs (ceil(k/2)+t, k+t) for odd t, exchanged before
    transmission.  Empty for k < 2, where the schedule degenerates."""
    if k < 1:
        raise ValueError("message length must be positive")
    last = 2 * math.ceil((k // 2) / 2) - 1
    return tuple((math.ceil(k / 2) + t, k + t) for t in range(1, last + 1, 2))


@dataclass(frozen=True)
class SwapSchedule:
    """The fixed transmit-side position swaps for one code."""

    pairs: tuple[tuple[int, int], ...]
    n: int

    @classmethod
    def for_spec(cls, spec: CodeSpec) -> "SwapSchedule":
        pairs = swap_pairs(spec.k)
        flat = [i for pair in pairs for i in pair]
        if len(set(flat)) != len(flat) or any(not (1 <= i <= spec.n) for i in flat):
            raise ValueError(f"swap schedule invalid for k={spec.k}, n={spec.n}")
        return cls(pairs=pairs, n=spec.n)

    def permutation(self) -> np.ndarray:
        """0-based position permutation; an involution, so it is its own inverse."""
        perm = np.arange(self.n)
        for a, b in self.pairs:
            perm[[a - 1, b - 1]] = perm[[b - 1, a - 1]]
        return perm


def post_encode(word, spec: CodeSpec) -> np.ndarray:
    """Apply the transmit-side swaps to a codeword."""
    c = as_bits(word)
    if c.size != spec.n:
        raise ValueError(f"expected a word of length {spec.n}, got {c.size}")
    return c[SwapSchedule.for_spec(spec).permutation()]


def pre_decode(word, spec: CodeSpec) -> np.ndarray:
    """Undo the transmit-side swaps; the same permutation, being an involution."""
    return post_encode(word, spec)


@dataclass(frozen=True)
class EncodedWord:
    """A codeword before (raw) and after (transmitted) the transmit swaps."""

    raw: np.ndarray
    transmitted: np.ndarray


def encode(u, spec: CodeSpec) -> EncodedWord:
    """Encode k message bits into a codeword and its transmitted form: the
    codebook row 2^k - 1 - decimal(u), unranked without building the codebook."""
    bits = as_bits(u)
    if bits.size != spec.k:
        raise ValueError(f"expected {spec.k} message bits, got {bits.size}")
    raw = stack_codewords([spec.size - 1 - decimal_value(bits)], spec)[0]
    return EncodedWord(raw=raw, transmitted=post_encode(raw, spec))


def _decode_unswapped(v: np.ndarray, spec: CodeSpec) -> np.ndarray:
    """Message bits of unswapped received words, one per row.

    When the extra bit agrees with the parity-body weight and the body ranks
    inside the codebook, the message is recovered from that row; otherwise
    the error sits in the parity section, or there are two or more errors,
    and the received message bits pass through.  Any single bit error is
    corrected.
    """
    k, m = spec.k, spec.m
    body = v[:, k : k + m]
    rows = rank_stack(body)
    consistent = v[:, -1] != body.sum(axis=1) % 2
    valid = consistent & (rows < spec.size)
    return np.where(valid[:, None], value_bits(spec.size - 1 - rows, k), v[:, :k])


def decode(word, spec: CodeSpec) -> np.ndarray:
    """Decode a received (transmitted-form) word back to k message bits."""
    return _decode_unswapped(pre_decode(word, spec)[None, :], spec)[0]


class BatchCodec:
    """Vectorized encoder and decoder over word matrices.

    Encoding is a row lookup in the materialized codebook; decoding runs the
    same recover-or-passthrough rule as decode() across all words at once.
    Used by the simulation harness, where millions of words move per run.
    """

    def __init__(self, codebook: Codebook, post_encoding: bool = True):
        spec = codebook.spec
        self.spec = spec
        self.post_encoding = post_encoding
        perm = SwapSchedule.for_spec(spec).permutation()
        self._perm = perm if post_encoding else np.arange(spec.n)
        self._table = codebook.codewords[:, self._perm]

    @property
    def message_len(self) -> int:
        return self.spec.k

    @property
    def block_len(self) -> int:
        return self.spec.n

    def encode(self, msgs: np.ndarray) -> np.ndarray:
        k = self.spec.k
        if msgs.ndim != 2 or msgs.shape[1] != k:
            raise ValueError(f"expected shape (N, {k})")
        dec = (msgs.astype(np.int64) << np.arange(k - 1, -1, -1)).sum(axis=1)
        rows = self.spec.size - 1 - dec
        return self._table[rows]

    def decode(self, words: np.ndarray) -> np.ndarray:
        spec = self.spec
        if words.ndim != 2 or words.shape[1] != spec.n:
            raise ValueError(f"expected shape (N, {spec.n})")
        return _decode_unswapped(words[:, self._perm], spec)
