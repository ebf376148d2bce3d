"""Construction of the (k+m+1, 2^k, 3) ISI-reducing single error correcting codes.

A codebook is assembled from three parts per codeword:

* a message block: all k-bit words, ordered by decreasing decimal value;
* a parity body: the r-th row of the constant-weight row stack, which lists
  every m-bit word of weight 0, then weight 1, and so on, each weight class
  ordered by decreasing decimal value, truncated to 2^k rows;
* one extra bit recording the parity of the parity-body weight (1 when the
  weight is even).

Any two codewords then differ in at least 3 positions, so a single bit error
is always correctable.  Heavier parity rows are pushed to the bottom of the
stack, which keeps the average density of 1s low in the tail of the codeword
and thereby reduces the intersymbol interference the code induces on itself.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import TextIO

import numpy as np

from .bits import bits_to_str

# Practical caps keeping matrix construction in memory; raise explicitly if
# larger codes are ever needed.
MAX_K = 20
MAX_M = 40


@dataclass(frozen=True)
class CodeSpec:
    """One code, fixed by k message bits and m parity-body bits; its length
    n = k + m + 1, 2^k codewords, weight cap and distance 3 follow."""

    k: int
    m: int

    def __post_init__(self):
        k, m = self.k, self.m
        if not (isinstance(k, int) and isinstance(m, int)):
            raise ValueError("k and m must be integers")
        if not (1 <= k <= MAX_K):
            raise ValueError(f"k must be in [1, {MAX_K}], got {k}")
        if not (k < m <= MAX_M):
            raise ValueError(f"m must satisfy k < m <= {MAX_M}, got m={m} for k={k}")

    @property
    def n(self) -> int:
        return self.k + self.m + 1

    @property
    def size(self) -> int:
        return 1 << self.k

    @property
    def max_parity_weight(self) -> int:
        return parity_weight_cap(self.k, self.m)


def value_bits(values, width: int) -> np.ndarray:
    """Rows of `width` bits, most significant first, one row per value.

    Filled one column at a time, so no (rows x width) int64 temporary exists.
    """
    values = np.asarray(values, dtype=np.int64)
    out = np.empty((values.size, width), dtype=np.uint8)
    for j in range(width):
        out[:, j] = (values >> (width - 1 - j)) & 1
    return out


def message_matrix(k: int) -> np.ndarray:
    """All k-bit words as rows, decimal value strictly decreasing: row r
    (1-based) has value 2^k - r."""
    if not (isinstance(k, int) and 1 <= k <= MAX_K):
        raise ValueError(f"k must be in [1, {MAX_K}], got {k}")
    return value_bits(np.arange((1 << k) - 1, -1, -1), k)


def _class_starts(m: int) -> list[int]:
    """Stack row where each weight class of m-bit words starts (index m + 1
    is the stack length 2^m), exact at any m."""
    return [0, *accumulate(math.comb(m, i) for i in range(m + 1))]


def _ones_blocks(m: int) -> np.ndarray:
    """Entry [rest, w] = C(rest, w - 1): how many words of weight w on rest + 1
    bits start with a 1 (none for w = 0)."""
    return np.array(
        [[math.comb(rest, w - 1) if w else 0 for w in range(m + 1)] for rest in range(m)],
        dtype=np.int64,
    )


def unrank_stack(rows, m: int) -> np.ndarray:
    """m-bit words at 0-based rows of the weight-stacked list: every word of
    weight 0, then weight 1, and so on, each weight class in decreasing
    decimal order.

    All rows move together, one bit column at a time: a row takes a 1 when
    its in-class rank falls inside the block of words with a 1 there, else it
    skips that block.
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    if rows.size and not (0 <= rows.min() and rows.max() < 1 << m):
        raise ValueError(f"stack rows must lie in [0, 2^{m})")
    starts = np.array(_class_starts(m), dtype=np.int64)
    ones = _ones_blocks(m)
    weight = np.searchsorted(starts, rows, side="right") - 1
    rank = rows - starts[weight]
    out = np.empty((rows.size, m), dtype=np.uint8)
    for j in range(m):
        block = ones[m - 1 - j, weight]
        bit = rank < block
        out[:, j] = bit
        rank -= np.where(bit, 0, block)
        weight -= bit
    return out


def rank_stack(words) -> np.ndarray:
    """0-based rows of m-bit words in the weight-stacked list, the inverse of
    unrank_stack: each 0 met while weight remains skips the block of words
    with a 1 in that position."""
    words = np.asarray(words)
    m = words.shape[1]
    ones = _ones_blocks(m)
    weight = words.sum(axis=1, dtype=np.int64)
    rows = np.array(_class_starts(m), dtype=np.int64)[weight]
    for j in range(m):
        bit = words[:, j]
        rows += np.where(bit, 0, ones[m - 1 - j, weight])
        weight -= bit
    return rows


def parity_weight_cap(k: int, m: int) -> int:
    """Smallest weight cap tau such that the classes of weight 0..tau hold at
    least 2^k rows.  Defined for m > k; equals ceil(k/2) when m = k + 1."""
    if m <= k:
        raise ValueError(f"parity weight cap requires m > k, got k={k}, m={m}")
    return bisect_left(_class_starts(m), 1 << k) - 1


def stack_codewords(rows, spec: CodeSpec) -> np.ndarray:
    """Codewords at 0-based codebook rows: message value 2^k - 1 - row, the
    row's parity body, and the extra bit (1 when the body weight is even)."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    k, m = spec.k, spec.m
    words = np.empty((rows.size, spec.n), dtype=np.uint8)
    words[:, :k] = value_bits(spec.size - 1 - rows, k)
    words[:, k : k + m] = unrank_stack(rows, m)
    words[:, -1] = 1 - words[:, k : k + m].sum(axis=1) % 2
    return words


@dataclass(frozen=True)
class Codebook:
    """An immutable code: 2^k codewords of length n as a read-only matrix."""

    spec: CodeSpec
    codewords: np.ndarray


def build_codebook(k: int, m: int) -> Codebook:
    spec = CodeSpec(k, m)
    words = stack_codewords(np.arange(spec.size), spec)
    words.setflags(write=False)
    return Codebook(spec=spec, codewords=words)


def verify_min_distance(words) -> float:
    """Exact minimum pairwise Hamming distance of a word matrix's rows, by an all-pairs scan.

    Returns math.inf for a single-codeword input (no pairs to compare).
    """
    words = np.asarray(words)
    if words.ndim != 2 or words.shape[0] == 0:
        raise ValueError("expected a non-empty matrix of codewords")
    s = words.shape[0]
    if s == 1:
        return math.inf
    best = words.shape[1]
    words_i16 = words.astype(np.int16)
    for a in range(s - 1):
        d = np.abs(words_i16[a + 1 :] - words_i16[a]).sum(axis=1).min()
        if d < best:
            best = int(d)
    return best


def density_profile(codebook: Codebook) -> np.ndarray:
    """Average density of 1s per position, column weight over code size."""
    return codebook.codewords.mean(axis=0)


def design_for_rate(epsilon, k_max: int) -> tuple[tuple[int, int, int], ...]:
    """The (k, m, weight cap) triple of every k <= k_max for which a
    rate-epsilon code of length k/epsilon exists.

    A candidate k must make k/epsilon an integer n and leave m = n - k - 1
    above k.  parity_weight_cap(k, m) is then the cap, the smallest whose
    weight classes hold 2^k rows; it is at most k, since the classes of
    weight <= k already hold 2^k rows when m > k, and so below m.
    """
    eps = Fraction(epsilon)
    if isinstance(epsilon, float):  # 0.2 means 1/5, not its binary value
        eps = eps.limit_denominator()
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError(f"target rate must lie strictly in (0, 1/2), got {eps}")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    found: list[tuple[int, int, int]] = []
    for k in range(1, k_max + 1):
        n = Fraction(k) / eps
        if n.denominator != 1:
            continue
        n = int(n)
        m = n - k - 1
        if m <= k:
            continue
        found.append((k, m, parity_weight_cap(k, m)))
    return tuple(found)


def export_codebook_csv(codebook: Codebook, out: TextIO) -> None:
    """Write rows `r,u,p,rho,codeword` with bits as 0/1 strings."""
    k, m = codebook.spec.k, codebook.spec.m
    out.write("r,u,p,rho,codeword\n")
    for r, word in enumerate(codebook.codewords, start=1):
        u = bits_to_str(word[:k])
        pb = bits_to_str(word[k : k + m])
        out.write(f"{r},{u},{pb},{int(word[-1])},{bits_to_str(word)}\n")
