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

import numpy as np

from .bits import as_bits
from .codebook import Codebook, CodeSpec, rank_stack, stack_codewords, value_bits


def swap_pairs(k: int) -> tuple[tuple[int, int], ...]:
    """1-based position pairs (ceil(k/2)+t, k+t) for odd t <= k/2, exchanged
    before transmission.  Empty for k < 2, where the schedule degenerates."""
    if k < 1:
        raise ValueError("message length must be positive")
    return tuple((math.ceil(k / 2) + t, k + t) for t in range(1, k // 2 + 1, 2))


def swap_permutation(spec: CodeSpec) -> np.ndarray:
    """0-based position permutation of the transmit swaps for one code; an
    involution, so the same indexing applies and undoes them."""
    perm = np.arange(spec.n)
    for a, b in swap_pairs(spec.k):
        perm[[a - 1, b - 1]] = perm[[b - 1, a - 1]]
    return perm


def swap_gain(book: Codebook, profile, t: int) -> float:
    """Change of the two affected interference sums when the transmit swap for
    odd index t is applied alone.

    Swapping positions (ceil(k/2)+t, k+t) changes the summed interference at
    the two following positions by -(2^(k-1) - w) * p_{floor(k/2)+2}, where w
    is the column weight at position k+t.  Never positive, since no column
    outweighs a message column.
    """
    k = book.spec.k
    valid_t = tuple(a - math.ceil(k / 2) for a, _ in swap_pairs(k))
    if t not in valid_t:
        raise ValueError(f"t must be one of {valid_t} for k={k}")
    p = np.asarray(profile, dtype=np.float64)
    w = int(book.codewords[:, k + t - 1].sum())
    return -(2 ** (k - 1) - w) * float(p[k // 2 + 1])


def _codebook_rows(msgs: np.ndarray, spec: CodeSpec) -> np.ndarray:
    """0-based codebook row of each k-bit message row: 2^k - 1 less its value."""
    k = spec.k
    return spec.size - 1 - (msgs.astype(np.int64) << np.arange(k - 1, -1, -1)).sum(axis=1)


def encode(u, spec: CodeSpec, post_encoding: bool = True) -> np.ndarray:
    """Encode k message bits into the transmitted codeword, or the raw
    codebook row when post_encoding is False; unranked without building the
    codebook."""
    bits = as_bits(u)
    if bits.size != spec.k:
        raise ValueError(f"expected {spec.k} message bits, got {bits.size}")
    word = stack_codewords(_codebook_rows(bits[None, :], spec), spec)[0]
    return word[swap_permutation(spec)] if post_encoding else word


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
    v = as_bits(word)
    if v.size != spec.n:
        raise ValueError(f"expected a word of length {spec.n}, got {v.size}")
    return _decode_unswapped(v[swap_permutation(spec)][None, :], spec)[0]


class BatchCodec:
    """The ckm:K,M coder: vectorized encoder and decoder over word matrices.

    Encoding is a row lookup in the materialized codebook; decoding runs the
    same recover-or-passthrough rule as decode() across all words at once.
    Used by the simulation harness, where millions of words move per run.
    """

    def __init__(self, codebook: Codebook, post_encoding: bool = True):
        spec = codebook.spec
        self.spec = spec
        self.label = f"ckm:{spec.k},{spec.m}"
        self.post_encoding_label = "true" if post_encoding else "false"
        self.message_len, self.block_len = spec.k, spec.n
        self._perm = swap_permutation(spec) if post_encoding else np.arange(spec.n)
        self._table = codebook.codewords[:, self._perm]
        self._table.flags.writeable = False

    def transmitted_words(self) -> np.ndarray:
        """Every word as it appears on the channel, read-only; row r carries
        message value 2^k - 1 - r, the order of message_matrix(k)."""
        return self._table

    def encode(self, msgs: np.ndarray) -> np.ndarray:
        k = self.spec.k
        if msgs.ndim != 2 or msgs.shape[1] != k:
            raise ValueError(f"expected shape (N, {k})")
        return self._table[_codebook_rows(msgs, self.spec)]

    def decode(self, words: np.ndarray) -> np.ndarray:
        spec = self.spec
        if words.ndim != 2 or words.shape[1] != spec.n:
            raise ValueError(f"expected shape (N, {spec.n})")
        return _decode_unswapped(words[:, self._perm], spec)
