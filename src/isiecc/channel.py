"""Diffusion channel with a fully absorbing spherical receiver.

Physics: a point transmitter releases M molecules per 1-bit; each molecule
diffuses independently in an unbounded 3-D medium and is absorbed by a sphere
of radius r whose centre sits r0 away.  The probability that one molecule has
been absorbed by time t is

    F(t) = (r / r0) * erfc((r0 - r) / sqrt(4 D t)),

so a molecule released at the start of slot j lands in slot j + i - 1 with
probability p_i = F(i ts) - F((i - 1) ts), or is never seen within the
channel memory of L slots.  Molecules from earlier slots absorbed in the
current one are intersymbol interference.

Transport is simulated exactly.  A molecule is absorbed in at most one slot,
so the M molecules of one transmitted 1 land multinomially over
(p_1 .. p_L, never-absorbed).  That law is drawn by its own decomposition:
X_1 ~ Bin(M, p_1) molecules in the emission's own slot, then
T ~ Bin(M - X_1, P_tail / (1 - p_1)) in lags 2..L with P_tail = p_2 + ... +
p_L, and each of those T molecules takes lag d with probability
p_d / P_tail from a guide table over 2^16 cells of the tail CDF (Chen &
Asau, AIIE Trans. 6(2), 1974).
Receiver noise is zero-mean Gaussian added per slot, and detection
thresholds the real-valued slot observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .codebook import Codebook, CodeSpec, build_codebook
from .codec import swap_pairs

CONFIG_KEYS = ("D_um2_per_s", "r_um", "r0_um", "ts_s", "L", "M", "sigma_n2", "seed")


@dataclass(frozen=True)
class ChannelParams:
    """Physical and link parameters.

    D in um^2/s, radii in um, ts in seconds, L in slots, M in molecules per
    1-bit, sigma_n2 in squared molecule counts.
    """

    D: float
    r: float
    r0: float
    ts: float
    L: int
    M: int
    sigma_n2: float

    def __post_init__(self):
        if not (self.r0 > self.r > 0):
            raise ValueError(f"need r0 > r > 0, got r={self.r}, r0={self.r0}")
        if self.D <= 0 or self.ts <= 0:
            raise ValueError("D and ts must be positive")
        if self.L < 1:
            raise ValueError("channel memory L must be at least 1 slot")
        if self.M < 0 or self.sigma_n2 < 0:
            raise ValueError("M and sigma_n2 must be non-negative")

    def with_molecules(self, M: int) -> "ChannelParams":
        if M != int(M):
            raise ValueError(f"molecules per 1-bit must be a whole number, got {M}")
        return replace(self, M=int(M))

    def with_noise(self, sigma_n2: float) -> "ChannelParams":
        return replace(self, sigma_n2=float(sigma_n2))


def load_channel_config(path) -> tuple[ChannelParams, int]:
    """Read `key = value` lines; all keys required, nothing defaulted."""
    text = Path(path).read_text()
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = stripped.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val
    missing = [k for k in CONFIG_KEYS if k not in values]
    if missing:
        raise ValueError(f"{path}: missing required keys: {', '.join(missing)}")
    params = ChannelParams(
        D=float(values["D_um2_per_s"]),
        r=float(values["r_um"]),
        r0=float(values["r0_um"]),
        ts=float(values["ts_s"]),
        L=int(values["L"]),
        M=int(values["M"]),
        sigma_n2=float(values["sigma_n2"]),
    )
    return params, int(values["seed"])


def hitting_prob(t: float, params: ChannelParams) -> float:
    """Probability that one molecule is absorbed within t seconds of release.

    Nondecreasing in t, zero at t = 0, approaching r/r0 as t grows.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    if t == 0:
        return 0.0
    return (params.r / params.r0) * math.erfc(
        (params.r0 - params.r) / math.sqrt(4.0 * params.D * t)
    )


@dataclass(frozen=True)
class SlotProfile:
    """Per-slot absorption probabilities p_1 .. p_L."""

    p: np.ndarray

    def __len__(self) -> int:
        return len(self.p)


def slot_probs(params: ChannelParams) -> SlotProfile:
    """p_i = F(i ts) - F((i-1) ts); partial sums telescope to F(L ts)."""
    f = [hitting_prob(i * params.ts, params) for i in range(params.L + 1)]
    p = np.diff(np.asarray(f, dtype=np.float64))
    if not (p > 0).all():
        raise ValueError("slot probabilities must all be positive; check ts and L")
    p.setflags(write=False)
    return SlotProfile(p=p)


def _probs(profile) -> np.ndarray:
    return np.asarray(getattr(profile, "p", profile), dtype=np.float64)


def _interference(history, p: np.ndarray) -> float:
    """Interference on the slot after `history` (0/1 bits or densities, most
    recent last): the bit g slots back weighs p_{g+1}, for g = 1 .. L-1."""
    h = np.asarray(history, dtype=np.float64)
    if h.size >= p.size:
        raise ValueError(f"{h.size} earlier slots reach beyond the channel memory L={p.size}")
    return float(h[::-1] @ p[1 : h.size + 1])


def isi_of_sequence(word, i: int, profile) -> float:
    """Interference hitting position i of one word from its earlier 1s,
    summed as c_l * p_{i-l+1} over l < i.  Per-position densities in place
    of bits give the expected interference."""
    c = np.asarray(word)
    p = _probs(profile)
    if not (1 <= i <= c.size):
        raise ValueError(f"position {i} outside 1..{c.size}")
    if c.size > p.size:
        raise ValueError("word longer than the channel memory")
    return _interference(c[: i - 1], p)


def expected_isi(words, i: int, profile) -> float:
    """Average of isi_of_sequence over a set of words (rows of a matrix or a
    Codebook; pass transmitted forms to evaluate the swapped code)."""
    mat = words.codewords if isinstance(words, Codebook) else np.atleast_2d(np.asarray(words))
    return isi_of_sequence(mat.mean(axis=0), i, profile)


def streaming_expected_isi(densities, position: int, profile) -> float:
    """Expected interference at one codeword position inside an endless
    stream of codewords, extending the per-position densities periodically
    into earlier codewords.  Exact for any bit correlations because the
    interference is linear in the transmitted bits."""
    dens = np.asarray(densities, dtype=np.float64)
    p = _probs(profile)
    n = dens.size
    if not (1 <= position <= n):
        raise ValueError(f"position {position} outside 1..{n}")
    return _interference(dens[(position - 1 - np.arange(p.size - 1, 0, -1)) % n], p)


def stream_average_isi(densities, profile) -> float:
    """Per-slot expected interference of the streamed code, averaged over the
    codeword period; proportional to the code's average bit-1 density."""
    n = np.asarray(densities).size
    return math.fsum(streaming_expected_isi(densities, i, profile) for i in range(1, n + 1)) / n


def codeword_isi_bound(codeword, profile, max_parity_weight: int, message_len: int) -> bool:
    """Check that the coding overhead of one codeword stays within the design
    ISI budget.

    At every position, the interference contributed by the parity section
    (positions beyond message_len) must not exceed the interference that a
    run of max_parity_weight 1s immediately before the last position would
    cause, which is the worst arrangement a weight-capped parity allows.
    """
    p = _probs(profile)
    parity = np.array(codeword, dtype=np.float64)
    if parity.size > p.size:
        raise ValueError("codeword longer than the slot profile")
    parity[:message_len] = 0
    budget = _interference(np.ones(max_parity_weight), p)  # p_2 + ... + p_{cap+1}
    return all(
        _interference(parity[: i - 1], p) <= budget + 1e-12 for i in range(2, parity.size + 1)
    )


def swap_gain(code: Codebook | CodeSpec, profile, t: int) -> float:
    """Change of the two affected interference sums when the transmit swap for
    odd index t is applied alone.

    Swapping positions (ceil(k/2)+t, k+t) changes the summed interference at
    the two following positions by -(2^(k-1) - w) * p_{floor(k/2)+2}, where w
    is the column weight at position k+t.  Never positive, since no column
    outweighs a message column.
    """
    book = code if isinstance(code, Codebook) else build_codebook(code.k, code.m)
    k = book.spec.k
    valid_t = tuple(a - math.ceil(k / 2) for a, _ in swap_pairs(k))
    if t not in valid_t:
        raise ValueError(f"t must be one of {valid_t} for k={k}")
    p = _probs(profile)
    w = book.column_weights[k + t - 1]
    return -(2 ** (k - 1) - w) * float(p[k // 2 + 1])


@dataclass(frozen=True)
class ReceivedFrame:
    """Per-slot observations for a simulated stream and, when a threshold was
    supplied, the per-slot bit decisions."""

    counts: np.ndarray
    decisions: np.ndarray | None


class GuideTable:
    """Guide table over the tail lags 2..L, as slot offsets 1..L-1.

    The tail CDF is cut into 2^16 cells of 2^64 units each.  A cell inside
    one lag holds its offset; the r-th cell that lag boundaries cross holds
    -1 - r, and a fix-up word w resolves it to top[r] - #(w < offsets[r]),
    the boundaries' in-cell units padded with 0.  A plain class, because a
    dataclass would add ~1 ms to every import of this module.
    """

    __slots__ = ("guide", "top", "offsets")

    def __init__(self, guide: np.ndarray, top: np.ndarray, offsets: np.ndarray):
        self.guide = guide  # int8 up to L = 128, else wider; one entry per cell
        self.top = top  # offset at the end of each crossed cell
        self.offsets = offsets  # uint64, (crossed cells, most boundaries in one)
        for a in (guide, top, offsets):
            a.setflags(write=False)  # one table serves every caller through the cache

    def sample(self, cells: np.ndarray, fixup) -> np.ndarray:
        """Slot offset of each molecule from its uint16 cell; `fixup(k)`
        returns 64-bit words for the k molecules in crossed cells."""
        lags = np.take(self.guide, cells)
        hit = np.flatnonzero(lags < 0)
        if hit.size:
            rows = -1 - lags[hit]
            words = fixup(hit.size)
            lags[hit] = self.top[rows] - (words[:, None] < self.offsets[rows]).sum(axis=1)
        return lags


def guide_table(tail) -> GuideTable:
    """Guide table for lag probabilities proportional to `tail` (p_2 .. p_L).
    Boundaries sit at floor(CDF * 2^80) units: exact to 2^-80 of the float
    CDF, finer than a float64 uniform."""
    cdf = np.cumsum(np.asarray(tail, dtype=np.float64))
    scaled = np.ldexp(cdf[:-1] / cdf[-1], 16)
    cell = np.floor(scaled)
    offset = np.ldexp(scaled - cell, 64).astype(np.uint64)  # exact, truncated
    edges = np.arange(1 << 16)
    # boundaries at or before each cell's start, and before its end
    first = np.searchsorted(cell + (offset > 0), edges, side="right")
    last = np.searchsorted(cell, edges, side="right")
    rows = np.flatnonzero(last > first)
    # the smallest signed type holding offsets up to L - 1 and markers down to 2 - L
    guide = (first + 1).astype(np.min_scalar_type(-1 - cdf.size))
    guide[rows] = -1 - np.arange(rows.size)
    inside = last[rows] - first[rows]
    col = np.arange(int(inside.max(initial=0)))
    offsets = np.zeros((rows.size, col.size), dtype=np.uint64)
    used = col < inside[:, None]
    offsets[used] = offset[(first[rows][:, None] + col)[used]]
    return GuideTable(guide=guide, top=last[rows] + 1, offsets=offsets)


@lru_cache(maxsize=64)
def _transport_split(D: float, r: float, r0: float, ts: float, L: int):
    """(p_1, P_tail / (1 - p_1), tail guide table), or no table when L = 1.
    Keyed on the lag law's own parameters, so a sweep over M or sigma_n2
    builds it once, at its first transport call."""
    p = slot_probs(ChannelParams(D=D, r=r, r0=r0, ts=ts, L=L, M=0, sigma_n2=0.0)).p
    if p.size == 1:
        return float(p[0]), 0.0, None
    return float(p[0]), float(p[1:].sum() / (1.0 - p[0])), guide_table(p[1:])


# emissions per chunk of tail molecules (~66 each at M=300, L=40, so ~0.5 MB of
# molecule arrays).  Unused cells carry to the next chunk and fix-up words come
# from their own stream, so the counts do not depend on this size.
TRANSPORT_CHUNK = 1 << 10


def transmit_counts(
    tx_bits: np.ndarray,
    params: ChannelParams,
    rng: np.random.Generator,
    include_own_slot: bool = True,
) -> np.ndarray:
    """Absorbed-molecule counts per slot for a 0/1 transmit pattern.

    Each 1 releases M molecules whose landing slots are multinomial over
    (p_1 .. p_L, never-absorbed), drawn as an own-slot binomial, a tail
    binomial on the rest and one guide-table lag per tail molecule.  With
    include_own_slot=False the same-slot arrivals are still drawn (the tail
    depends on them) but dropped, leaving pure interference counts.
    Contributions beyond the pattern end are discarded.
    """
    L = params.L
    S = int(tx_bits.size)
    counts = np.zeros(S + L, dtype=np.float64)
    ones = np.flatnonzero(tx_bits)
    if params.M == 0 or not ones.size:
        return counts[:S]
    p1, q_tail, table = _transport_split(params.D, params.r, params.r0, params.ts, L)
    own = rng.binomial(params.M, p1, size=ones.size)
    if include_own_slot:
        counts[ones] += own
    if table is None:
        return counts[:S]
    tail = rng.binomial(params.M - own, q_tail)
    fixup = np.random.PCG64(rng.bit_generator.random_raw()).random_raw
    cells = np.empty(0, dtype=np.uint16)
    for lo in range(0, ones.size, TRANSPORT_CHUNK):
        pos, n = ones[lo : lo + TRANSPORT_CHUNK], tail[lo : lo + TRANSPORT_CHUNK]
        base = int(pos[0])
        span = int(pos[-1]) - base + L
        need = int(n.sum())
        # four cells per 64-bit word, after the up to three the last chunk left
        words = rng.bit_generator.random_raw((need - cells.size + 3) // 4)
        cells = np.concatenate([cells, words.view(np.uint16)])
        # slot of each tail molecule relative to base: its emission + offset
        slots = np.repeat(pos - base, n)
        slots += table.sample(cells[:need], fixup)
        cells = cells[need:]
        counts[base : base + span] += np.bincount(slots, minlength=span)
    return counts[:S]


def _observe(tx_bits: np.ndarray, params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """Slot observations of a transmit pattern sent after L silent warm-up
    slots, which are excluded, with Gaussian noise of variance sigma_n2."""
    L = params.L
    counts = transmit_counts(np.concatenate([np.zeros(L, dtype=np.uint8), tx_bits]), params, rng)
    if params.sigma_n2 > 0:
        counts = counts + rng.normal(0.0, math.sqrt(params.sigma_n2), size=counts.size)
    return counts[L:]


def simulate_stream(
    messages,
    coder,
    params: ChannelParams,
    rng_seed,
    threshold: float | None = None,
) -> ReceivedFrame:
    """Transmit a batch of messages as one contiguous slot stream.

    Words are encoded, concatenated (so each word suffers interference from
    its predecessors), and preceded by L silent warm-up slots that are
    excluded from the returned frame.  Per-slot observations add Gaussian
    noise of variance sigma_n2; identical seeds give identical frames.
    """
    msgs = np.atleast_2d(np.asarray(messages, dtype=np.uint8))
    if msgs.size == 0:
        raise ValueError("need at least one message")
    if msgs.shape[1] != coder.message_len:
        raise ValueError(f"messages must have {coder.message_len} bits each")
    rng = np.random.default_rng(rng_seed)
    counts = _observe(coder.encode(msgs).reshape(-1), params, rng)
    decisions = detect(counts, threshold) if threshold is not None else None
    return ReceivedFrame(counts=counts, decisions=decisions)


def calibrate_threshold(params: ChannelParams, pilot_length: int, rng_seed) -> float:
    """Detection threshold minimizing the slot error rate of an uncoded pilot.

    The pilot is a stream of i.i.d. equiprobable bits through the same
    channel; candidate thresholds are 256 evenly spaced values spanning
    [0, 2 M p_1] and ties resolve to the lowest one.  Deterministic for a
    fixed seed.  The same threshold is then shared by every code under
    comparison so that detection does not favour any of them.
    """
    if pilot_length < 10_000:
        raise ValueError("pilot must cover at least 10^4 slots")
    profile = slot_probs(params)
    peak = params.M * float(profile.p[0])
    if peak <= 0:
        raise ValueError("cannot calibrate with M * p_1 = 0")
    rng = np.random.default_rng(rng_seed)
    sent = rng.integers(0, 2, size=pilot_length, dtype=np.uint8)
    counts = _observe(sent, params, rng)
    grid = np.linspace(0.0, 2.0 * peak, 256)
    on = np.sort(counts[sent == 1])
    off = np.sort(counts[sent == 0])
    misses = np.searchsorted(on, grid, side="left")  # on-counts below threshold
    false_alarms = off.size - np.searchsorted(off, grid, side="left")
    return float(grid[int(np.argmin(misses + false_alarms))])


def detect(counts, threshold: float) -> np.ndarray:
    """Per-slot decisions: 1 where the observation reaches the threshold."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    return (np.asarray(counts, dtype=np.float64) >= threshold).astype(np.uint8)
