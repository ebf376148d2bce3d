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
from dataclasses import dataclass
from fractions import Fraction
from typing import TextIO

import numpy as np

from .bits import as_bits, bits_to_str

# Practical caps keeping matrix construction in memory; raise explicitly if
# larger codes are ever needed.
MAX_K = 20
MAX_M = 40
_MAX_CLASS_ROWS = 1 << 20


@dataclass(frozen=True)
class CodeSpec:
    """Design parameters of one code: k message bits, m parity-body bits,
    codeword length n = k + m + 1, 2^k codewords, minimum distance 3."""

    k: int
    m: int
    max_parity_weight: int
    n: int
    size: int
    min_distance: int = 3

    @classmethod
    def for_params(cls, k: int, m: int) -> "CodeSpec":
        if not (isinstance(k, int) and isinstance(m, int)):
            raise ValueError("k and m must be integers")
        if not (1 <= k <= MAX_K):
            raise ValueError(f"k must be in [1, {MAX_K}], got {k}")
        if not (k < m <= MAX_M):
            raise ValueError(f"m must satisfy k < m <= {MAX_M}, got m={m} for k={k}")
        return cls(k=k, m=m, max_parity_weight=parity_weight_cap(k, m), n=k + m + 1, size=1 << k)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)


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


def _class_starts(m: int) -> np.ndarray:
    """Stack row where each weight class of m-bit words starts (index m + 1
    is the stack length 2^m)."""
    return np.concatenate([[0], np.cumsum([math.comb(m, i) for i in range(m + 1)])])


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
    starts = _class_starts(m)
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
    rows = _class_starts(m)[weight]
    for j in range(m):
        bit = words[:, j]
        rows += np.where(bit, 0, ones[m - 1 - j, weight])
        weight -= bit
    return rows


def weight_class_matrix(m: int, i: int) -> np.ndarray:
    """All m-bit words of weight i as rows, decimal value strictly decreasing:
    the weight-i slice of the stack."""
    if not (isinstance(m, int) and isinstance(i, int)):
        raise ValueError("m and i must be integers")
    if not (0 <= i <= m):
        raise ValueError(f"weight i must satisfy 0 <= i <= m, got i={i}, m={m}")
    if m > MAX_M or math.comb(m, i) > _MAX_CLASS_ROWS:
        raise ValueError(f"refusing to materialize {math.comb(m, i)} rows for (m={m}, i={i})")
    start = int(_class_starts(m)[i])
    return unrank_stack(np.arange(start, start + math.comb(m, i)), m)


def rank_in_weight_class(p, m: int, i: int) -> int:
    """1-based row of an m-bit weight-i word inside its class: its stack row
    less the rows of the lighter classes."""
    bits = as_bits(p)
    if bits.size != m or int(bits.sum()) != i:
        raise ValueError(f"expected {m} bits of weight {i}, got {bits_to_str(bits)}")
    return int(rank_stack(bits[None, :])[0] - _class_starts(m)[i]) + 1


def unrank_in_weight_class(r: int, m: int, i: int) -> np.ndarray:
    """Row r (1-based) of the weight-i class of length m."""
    if not (0 <= i <= m and 1 <= r <= math.comb(m, i)):
        raise ValueError(f"row {r} outside [1, C({m},{i})] or weight {i} outside [0, {m}]")
    return unrank_stack([_class_starts(m)[i] + r - 1], m)[0]


def parity_weight_cap(k: int, m: int) -> int:
    """Smallest weight cap tau such that the classes of weight 0..tau hold at
    least 2^k rows.  Defined for m > k; equals ceil(k/2) when m = k + 1."""
    if m <= k:
        raise ValueError(f"parity weight cap requires m > k, got k={k}, m={m}")
    total, tau = 0, 0
    need = 1 << k
    while True:
        total += math.comb(m, tau)
        if need <= total:
            return tau
        tau += 1


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
    """An immutable code: 2^k codewords of length n as a read-only matrix,
    plus the per-position count of codewords carrying a 1 there."""

    spec: CodeSpec
    codewords: np.ndarray
    column_weights: tuple[int, ...]

    @property
    def message_bits(self) -> np.ndarray:
        return self.codewords[:, : self.spec.k]

    @property
    def parity_bodies(self) -> np.ndarray:
        return self.codewords[:, self.spec.k : self.spec.k + self.spec.m]

    @property
    def weight_parity_bits(self) -> np.ndarray:
        return self.codewords[:, -1]


def build_codebook(k: int, m: int) -> Codebook:
    spec = CodeSpec.for_params(k, m)
    words = stack_codewords(np.arange(spec.size), spec)
    words.setflags(write=False)
    col = tuple(int(c) for c in words.sum(axis=0, dtype=np.int64))
    return Codebook(spec=spec, codewords=words, column_weights=col)


def verify_min_distance(codebook: Codebook | np.ndarray) -> float:
    """Exact minimum pairwise Hamming distance by an all-pairs scan.

    Returns math.inf for a single-codeword input (no pairs to compare).
    """
    words = codebook.codewords if isinstance(codebook, Codebook) else np.asarray(codebook)
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
    return np.asarray(codebook.column_weights, dtype=np.float64) / codebook.spec.size


@dataclass(frozen=True)
class RateDesign:
    """Feasible (k, m, weight cap) triples achieving an exact target rate."""

    epsilon: Fraction
    candidates: tuple[tuple[int, int, int], ...]


def design_for_rate(epsilon, k_max: int) -> RateDesign:
    """All k <= k_max for which a rate-epsilon code of length k/epsilon exists.

    A candidate k must make k/epsilon an integer n, leave room for the parity
    section (cap + k + 1 < n), and satisfy the binomial sandwich that pins the
    weight cap for m = n - k - 1.  The cap may not exceed k.
    """
    eps = Fraction(epsilon)
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
        tau = parity_weight_cap(k, m)
        if tau > k or tau + k + 1 >= n:
            continue
        below = sum(math.comb(m, j) for j in range(tau))
        if not (below < (1 << k) <= below + math.comb(m, tau)):
            continue
        found.append((k, m, tau))
    return RateDesign(epsilon=eps, candidates=tuple(found))


def export_codebook_csv(codebook: Codebook, out: TextIO) -> None:
    """Write rows `r,u,p,rho,codeword` with bits as 0/1 strings."""
    k, m = codebook.spec.k, codebook.spec.m
    out.write("r,u,p,rho,codeword\n")
    for r, word in enumerate(codebook.codewords, start=1):
        u = bits_to_str(word[:k])
        pb = bits_to_str(word[k : k + m])
        out.write(f"{r},{u},{pb},{int(word[-1])},{bits_to_str(word)}\n")
