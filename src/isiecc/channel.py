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
the own-slot count X_1 and the count T in lags 2..L jointly, from
P(x, t) = Bin(M, p_1)(x) Bin(M - x, P_tail / (1 - p_1))(t) with P_tail =
p_2 + ... + p_L, then each of those T molecules takes lag d with
probability p_d / P_tail.  Both laws are drawn from guide tables over 2^16
cells of their CDFs (Chen & Asau, AIIE Trans. 6(2), 1974).
Receiver noise is zero-mean Gaussian added per slot, and detection
thresholds the real-valued slot observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

CONFIG_KEYS = ("D_um2_per_s", "r_um", "r0_um", "ts_s", "L", "M", "sigma_n2", "seed")

# Cap on molecules per 1-bit: a channel point's transport table build peaks at
# ~6 KB per molecule (L = 40, ts = 0.3 s), so ~0.6 GB at the cap.
MAX_MOLECULES = 100_000


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
        for name in ("D", "r", "r0", "ts", "sigma_n2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.r0 > self.r > 0):
            raise ValueError(f"need r0 > r > 0, got r={self.r}, r0={self.r0}")
        if self.D <= 0 or self.ts <= 0:
            raise ValueError("D and ts must be positive")
        for name, what in (("L", "channel memory L"), ("M", "molecules per 1-bit")):
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ValueError(f"{what} must be a whole number, got {value}")
            object.__setattr__(self, name, int(value))
        if self.L < 1:
            raise ValueError("channel memory L must be at least 1 slot")
        if self.M < 0 or self.sigma_n2 < 0:
            raise ValueError("M and sigma_n2 must be non-negative")
        if self.M > MAX_MOLECULES:
            raise ValueError(f"M = {self.M} exceeds the cap of {MAX_MOLECULES} molecules")

    def with_molecules(self, M: int) -> "ChannelParams":
        return replace(self, M=M)

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

    def number(key, kind=float):
        try:
            return kind(values[key])
        except ValueError:
            raise ValueError(f"{path}: {key} must be a number, got {values[key]!r}") from None

    # the ChannelParams fields in order, L and M parsed as floats like the
    # rest so that ChannelParams judges any whole-number spelling
    params = ChannelParams(*(number(key) for key in CONFIG_KEYS[:-1]))
    return params, number("seed", int)


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


def slot_probs(params: ChannelParams) -> np.ndarray:
    """Read-only p_1 .. p_L with p_i = F(i ts) - F((i-1) ts); partial sums
    telescope to F(L ts)."""
    f = [hitting_prob(i * params.ts, params) for i in range(params.L + 1)]
    p = np.diff(np.asarray(f, dtype=np.float64))
    if not (p > 0).all():
        raise ValueError("slot probabilities must all be positive; check ts and L")
    p.setflags(write=False)
    return p


def _interference(history, p: np.ndarray) -> float:
    """Interference on the slot after `history` (0/1 bits or densities, most
    recent last): the bit g slots back weighs p_{g+1}, for g = 1 .. L-1."""
    h = np.asarray(history, dtype=np.float64)
    if h.size >= p.size:
        raise ValueError(f"{h.size} earlier slots reach beyond the channel memory L={p.size}")
    return float(h[::-1] @ p[1 : h.size + 1])


def expected_isi(words, i: int, profile) -> float:
    """Mean interference hitting position i of a set of words from their
    earlier 1s, summed as c_l * p_{i-l+1} over l < i.  Takes the rows of a
    matrix or one 1-D word; pass transmitted forms to evaluate the swapped
    code."""
    dens = np.atleast_2d(np.asarray(words)).mean(axis=0)
    p = np.asarray(profile, dtype=np.float64)
    if not (1 <= i <= dens.size):
        raise ValueError(f"position {i} outside 1..{dens.size}")
    if dens.size > p.size:
        raise ValueError("word longer than the channel memory")
    return _interference(dens[: i - 1], p)


def streaming_expected_isi(densities, position: int, profile) -> float:
    """Expected interference at one codeword position inside an endless
    stream of codewords, extending the per-position densities periodically
    into earlier codewords.  Exact for any bit correlations because the
    interference is linear in the transmitted bits."""
    dens = np.asarray(densities, dtype=np.float64)
    p = np.asarray(profile, dtype=np.float64)
    n = dens.size
    if not (1 <= position <= n):
        raise ValueError(f"position {position} outside 1..{n}")
    return _interference(dens[(position - 1 - np.arange(p.size - 1, 0, -1)) % n], p)


def stream_average_isi(densities, profile) -> float:
    """Per-slot expected interference of the streamed code, averaged over the
    codeword period: the average bit-1 density times p_2 + ... + p_L, since
    over one period each lag meets every position once."""
    p = np.asarray(profile, dtype=np.float64)
    return float(np.mean(densities)) * float(p[1:].sum())


def codeword_isi_bound(codeword, profile, max_parity_weight: int, message_len: int) -> bool:
    """Check that the coding overhead of one codeword stays within the design
    ISI budget.

    At every position, the interference contributed by the parity section
    (positions beyond message_len) must not exceed the interference that a
    run of max_parity_weight 1s immediately before the last position would
    cause, which is the worst arrangement a weight-capped parity allows.
    """
    p = np.asarray(profile, dtype=np.float64)
    parity = np.array(codeword, dtype=np.float64)
    if parity.size > p.size:
        raise ValueError("codeword longer than the slot profile")
    parity[:message_len] = 0
    budget = _interference(np.ones(max_parity_weight), p)  # p_2 + ... + p_{cap+1}
    return all(
        _interference(parity[: i - 1], p) <= budget + 1e-12 for i in range(2, parity.size + 1)
    )


class GuideTable:
    """Draws values[i] (non-negative) with probability proportional to
    probs[i], from a guide table over 2^16 cells of the CDF.

    The CDF's inner boundaries sit at keys = floor(CDF * 2^64), so every
    outcome spans a whole number of 2^-64 units, far finer than the float64
    CDF.  A cell of 2^48 units inside one outcome holds its value; a cell
    that a boundary crosses holds -1, and a fix-up word w resolves it by
    searching cell * 2^48 + (w >> 16) in the keys.  A plain class, because a
    dataclass would add ~1 ms to every import of this module.
    """

    __slots__ = ("guide", "keys", "values")

    def __init__(self, probs, values):
        cdf = np.cumsum(probs)
        # a boundary that rounds to the top of the CDF stays below 2^64
        scaled = np.minimum(np.ldexp(cdf[:-1] / cdf[-1], 64), np.nextafter(2.0**64, 0))
        self.keys = scaled.astype(np.uint64)  # exact, truncated
        # the smallest signed type holding every value and the -1 marker
        self.values = np.asarray(values).astype(np.min_scalar_type(-1 - int(np.max(values))))
        # outcome i fills the cells from key i-1's up to key i's, and a cell
        # that a key falls strictly inside is marked crossed
        cell = (self.keys >> 48).astype(np.int64)
        self.guide = np.repeat(self.values, np.diff(cell, prepend=0, append=1 << 16))
        self.guide[cell[(self.keys & (1 << 48) - 1) > 0]] = -1
        for a in (self.guide, self.keys, self.values):
            a.setflags(write=False)  # one table serves every caller through the cache

    def sample(self, cells: np.ndarray, fixup) -> np.ndarray:
        """Value drawn for each uint16 cell; `fixup(k)` returns 64-bit words
        for the k draws in crossed cells."""
        out = np.take(self.guide, cells)
        hit = np.flatnonzero(out < 0)
        if hit.size:
            units = cells[hit].astype(np.uint64) << 48 | fixup(hit.size) >> 16
            out[hit] = self.values[np.searchsorted(self.keys, units, side="right")]
        return out


@lru_cache(maxsize=16)
def _transport_tables(D: float, r: float, r0: float, ts: float, L: int, M: int):
    """(emission, lags) guide tables for one channel point, built at its
    first transport call.  `emission` is over one emission's own-slot count
    X_1 and tail count T, packed as X_1 | T << M.bit_length(), with P(x, t)
    = Bin(M, p_1)(x) Bin(M - x, q)(t), q = P_tail / (1 - p_1) and T = 0 at
    L = 1; `lags` is over a tail molecule's slot offsets 1..L-1, None at
    L = 1.  Only outcomes above 2^-100 are enumerated, ~60 per molecule at
    L = 40, ts = 0.3 s: by Hoeffding's bound, a Bin(n, q) pmf above 2^-100 /
    P(x) lies within sqrt(n (101 ln 2 + ln P(x)) / 2) of n q."""
    p = slot_probs(ChannelParams(D=D, r=r, r0=r0, ts=ts, L=L, M=M, sigma_n2=0.0))
    p1, q = float(p[0]), float(p[1:].sum() / (1.0 - p[0]))
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(M + 1)])
    floor = -100 * math.log(2)

    def log_pmf(n, k, prob):  # of Bin(n, prob) at k
        log_p = log_fact[n] - log_fact[k] - log_fact[n - k]
        return log_p + k * math.log(prob) + (n - k) * math.log1p(-prob)

    x = np.arange(M + 1)
    log_p = log_pmf(M, x, p1)
    x, log_p = x[log_p > floor], log_p[log_p > floor]
    t = np.zeros_like(x)
    if q > 0:
        n = M - x
        half = np.sqrt(n * (101 * math.log(2) + log_p) / 2)
        lo = np.maximum(np.ceil(n * q - half), 0).astype(np.int64)
        size = np.minimum(np.floor(n * q + half), n).astype(np.int64) - lo + 1
        x, log_p = np.repeat(x, size), np.repeat(log_p, size)
        t = np.arange(x.size) - np.repeat(np.cumsum(size) - size - lo, size)
        log_p += log_pmf(M - x, t, q)
    keep = log_p > floor
    emission = GuideTable(np.exp(log_p[keep]), (x | t << M.bit_length())[keep])
    return emission, GuideTable(p[1:], np.arange(1, L)) if L > 1 else None


# emissions per chunk of tail molecules (~66 each at M=300, L=40, so ~0.5 MB of
# molecule arrays).  Cells form one stream (emissions first, then molecules)
# whose unused cells carry to the next chunk, and fix-up words come from their
# own stream, so the counts do not depend on this size.
TRANSPORT_CHUNK = 1 << 10


def transmit_counts(
    tx_bits: np.ndarray,
    params: ChannelParams,
    rng: np.random.Generator,
    include_own_slot: bool = True,
) -> np.ndarray:
    """Absorbed-molecule counts per slot for a 0/1 transmit pattern.

    Each 1 releases M molecules whose landing slots are multinomial over
    (p_1 .. p_L, never-absorbed), drawn as one joint table draw of the
    own-slot and tail counts and one guide-table lag per tail molecule.
    With include_own_slot=False the same-slot arrivals are still drawn (the
    tail depends on them) but dropped, leaving pure interference counts.
    Contributions beyond the pattern end are discarded.
    """
    L = params.L
    S = int(tx_bits.size)
    counts = np.zeros(S + L, dtype=np.float64)
    ones = np.flatnonzero(tx_bits)
    if params.M == 0 or not ones.size:
        return counts[:S]
    emission, lags = _transport_tables(params.D, params.r, params.r0, params.ts, L, params.M)
    fixup = np.random.PCG64(rng.bit_generator.random_raw()).random_raw
    cells = rng.bit_generator.random_raw((ones.size + 3) // 4).view(np.uint16)
    drawn = emission.sample(cells[: ones.size], fixup)
    shift = params.M.bit_length()
    if include_own_slot:
        counts[ones] += drawn & (1 << shift) - 1
    if lags is None:
        return counts[:S]
    tail = drawn >> shift
    cells = cells[ones.size :]
    for lo in range(0, ones.size, TRANSPORT_CHUNK):
        pos, n = ones[lo : lo + TRANSPORT_CHUNK], tail[lo : lo + TRANSPORT_CHUNK]
        base = int(pos[0])
        span = int(pos[-1]) - base + L
        need = int(n.sum())
        # four cells per 64-bit word, after the up to three left over
        words = rng.bit_generator.random_raw((need - cells.size + 3) // 4)
        cells = np.concatenate([cells, words.view(np.uint16)])
        # slot of each tail molecule relative to base: its emission + offset
        slots = np.repeat(pos - base, n)
        slots += lags.sample(cells[:need], fixup)
        cells = cells[need:]
        counts[base : base + span] += np.bincount(slots, minlength=span)
    return counts[:S]


def _observe(tx_bits: np.ndarray, params: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """Slot observations, with noise of variance sigma_n2, of a transmit pattern
    sent after L excluded silent slots, which only offset the noise draws."""
    L = params.L
    counts = transmit_counts(np.concatenate([np.zeros(L, dtype=np.uint8), tx_bits]), params, rng)
    if params.sigma_n2 > 0:
        counts = counts + rng.normal(0.0, math.sqrt(params.sigma_n2), size=counts.size)
    return counts[L:]


def simulate_stream(
    messages, coder, params: ChannelParams, rng_seed, threshold: float
) -> np.ndarray:
    """Per-slot bit decisions for a batch of messages sent as one contiguous
    slot stream.

    Words are encoded and concatenated, so each word suffers interference
    from its predecessors; the first word sees none.  `_observe` gives the
    slot observations, with Gaussian noise of variance sigma_n2, and `detect`
    thresholds them.  Identical seeds give identical decisions.
    """
    msgs = np.atleast_2d(np.asarray(messages, dtype=np.uint8))
    if msgs.size == 0:
        raise ValueError("need at least one message")
    if msgs.shape[1] != coder.message_len:
        raise ValueError(f"messages must have {coder.message_len} bits each")
    counts = _observe(coder.encode(msgs).reshape(-1), params, np.random.default_rng(rng_seed))
    return detect(counts, threshold)


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
    peak = params.M * float(slot_probs(params)[0])
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
