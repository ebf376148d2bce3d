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
Receiver noise is zero-mean Gaussian: detect decides a slot 1 with
probability P(count + noise >= theta), exactly given its count, and
simulate_stream walks a stream's points in ascending M.  Thresholds are
computed, not sampled, from slot_law's exact count law of one slot.
"""

from __future__ import annotations

import decimal
import itertools
import math
import threading
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
        except (ValueError, decimal.InvalidOperation):
            raise ValueError(f"{path}: {key} must be a number, got {values[key]!r}") from None

    # the ChannelParams fields in order, L and M parsed as floats like the
    # rest so that ChannelParams judges any whole-number spelling
    params = ChannelParams(*(number(key) for key in CONFIG_KEYS[:-1]))
    seed = number("seed", decimal.Decimal)  # exact: 1e30 keeps every digit
    # a finite whole number, its digits within int()'s own limit
    if not (seed.is_finite() and seed == seed.to_integral_value() and seed.adjusted() < 4300):
        raise ValueError(f"{path}: seed must be a whole number, got {values['seed']!r}")
    return params, int(seed)


def hitting_prob(t: float, params: ChannelParams) -> float:
    """Probability that one molecule is absorbed within t seconds of release.

    Nondecreasing in t, zero at t = 0, approaching r/r0 as t grows.
    """
    if not t >= 0:  # also rejects NaN
        raise ValueError(f"time must be non-negative, got {t}")
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


def isi_matrix(profile, n: int, stream: bool) -> np.ndarray:
    """(n, n) lag-to-position map of an n-slot word: entry (i, j) sums p_{g+1}
    over the lags g = 1 .. L-1 with j = (i + g) mod period, an endless stream
    of period n, or of period n + L - 1 for an isolated word, whose L - 1
    silent slots wrap no lag back into it (lags of L or more carry nothing)."""
    p = np.asarray(profile, dtype=np.float64)
    period = n if stream else n + p.size - 1
    shares = np.bincount(np.arange(1, p.size) % period, weights=p[1:], minlength=period)
    return shares[(np.arange(n) - np.arange(n)[:, None]) % period]


def expected_isi(words, profile, stream: bool = False) -> np.ndarray:
    """Mean interference at every position of a set of words from the 1s
    before it: their per-position densities times isi_matrix, within each
    word, or with stream, in an endless stream of them (exact for any bit
    correlations, the interference being linear in the bits).  Takes the rows
    of a matrix, one 1-D word or the per-position densities of a code; pass
    transmitted forms to evaluate the swapped code."""
    words = np.asarray(words)
    if words.ndim > 2:
        raise ValueError(f"takes a word, a matrix of words or densities, not {words.ndim}-D")
    dens = np.atleast_2d(words).mean(axis=0)
    return dens @ isi_matrix(profile, dens.size, stream)


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
    for name, value in (("max_parity_weight", max_parity_weight), ("message_len", message_len)):
        if not isinstance(value, int | np.integer):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if max_parity_weight < 0:
        raise ValueError(f"cap of {max_parity_weight} parity 1s is negative")
    if not 0 <= message_len <= parity.size:
        raise ValueError(f"message length {message_len} outside 0..{parity.size}")
    parity[:message_len] = 0
    budget = p[1 : max_parity_weight + 1].sum()  # p_2 + ... + p_{cap+1}, cut at p_L
    return bool((expected_isi(parity, p) <= budget + 1e-12).all())


class GuideTable:
    """Draws values[i] (non-negative) with probability proportional to
    probs[i], from a guide table over 2^16 cells of the CDF.

    The CDF's inner boundaries sit at keys = floor(CDF * 2^64), so every
    outcome spans a whole number of 2^-64 units, far finer than the float64
    CDF; an outcome of no unit is dropped, so the keys strictly increase.  A
    cell of 2^48 units inside one outcome holds its value; a crossed cell
    holds -1, and a fix-up word w resolves it by searching cell * 2^48 +
    (w >> 16) in the keys.  A plain class: a dataclass adds ~1 ms to import.
    """

    __slots__ = ("guide", "keys", "values")

    def __init__(self, probs, values):
        cdf = np.cumsum(probs)
        # a boundary that rounds to the top of the CDF stays below 2^64
        scaled = np.minimum(np.ldexp(cdf[:-1] / cdf[-1], 64), np.nextafter(2.0**64, 0))
        keys = scaled.astype(np.uint64)  # exact, truncated
        # outcome i spans key i-1 (0 for the first) to key i (2^64 for the last)
        drawn = np.append(np.diff(keys, prepend=np.uint64(0)) > 0, True)
        self.keys, values = keys[drawn[:-1]], np.asarray(values)[drawn]
        # the smallest signed type holding every value and the -1 marker
        self.values = values.astype(np.min_scalar_type(-1 - int(np.max(values))))
        # an outcome fills the cells inside its span; a key strictly inside a cell crosses it
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


# probabilities below 2^-100 are left out of every enumerated law
LOG_FLOOR = -100 * math.log(2)


def _binomial_log_pmf(M: int):
    """log Bin(n, prob)(k) for n <= M, from one table of log factorials."""
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(M + 1)])

    def log_pmf(n, k, prob):
        log_p = log_fact[n] - log_fact[k] - log_fact[n - k]
        return log_p + k * math.log(prob) + (n - k) * math.log1p(-prob)

    return log_pmf


@lru_cache(maxsize=2)
def _transport_tables(point: ChannelParams):
    """(emission, lags) guide tables for one noise-free channel point, built
    at its first transport call.  `emission` is over one emission's own-slot
    count X_1 and tail count T, packed as X_1 | T << M.bit_length(), with
    P(x, t) = Bin(M, p_1)(x) Bin(M - x, q)(t), q = P_tail / (1 - p_1) and
    T = 0 at L = 1; `lags` is over a tail molecule's slot offsets 1..L-1,
    None at L = 1.  Only outcomes above 2^-100 are enumerated, ~60 per
    molecule at L = 40, ts = 0.3 s: by Hoeffding's bound, a Bin(n, q) pmf
    above 2^-100 / P(x) lies within sqrt(n (101 ln 2 + ln P(x)) / 2) of n q."""
    p, L, M = slot_probs(point), point.L, point.M
    p1, q = float(p[0]), float(p[1:].sum() / (1.0 - p[0]))
    log_pmf = _binomial_log_pmf(M)
    x = np.arange(M + 1)
    log_p = log_pmf(M, x, p1)
    x, log_p = x[log_p > LOG_FLOOR], log_p[log_p > LOG_FLOOR]
    t = np.zeros_like(x)
    if L > 1:
        n = M - x
        half = np.sqrt(n * (101 * math.log(2) + log_p) / 2)
        lo = np.maximum(np.ceil(n * q - half), 0).astype(np.int64)
        size = np.minimum(np.floor(n * q + half), n).astype(np.int64) - lo + 1
        x, log_p = np.repeat(x, size), np.repeat(log_p, size)
        t = np.arange(x.size) - np.repeat(np.cumsum(size) - size - lo, size)
        log_p += log_pmf(M - x, t, q)
    keep = log_p > LOG_FLOOR
    emission = GuideTable(np.exp(log_p[keep]), (x | t << M.bit_length())[keep])
    return emission, GuideTable(p[1:], np.arange(1, L)) if L > 1 else None


# tail molecules per chunk, on average over a call's emissions (~0.5 MB of
# molecule arrays at any M and L).  Cells form one stream (emissions first,
# then molecules) whose unused cells carry to the next chunk, and fix-up words
# come from their own stream, so the counts do not depend on this size.
TRANSPORT_CHUNK = 1 << 16
# one table lookup at a time: workers missing the cache together wait for one build
_TABLES_LOCK = threading.Lock()


def _count_dtype(point: ChannelParams):
    """Integer type of slot counts: a slot never holds more than M * L molecules."""
    return np.int32 if point.M * point.L < 2**31 else np.int64


def transmit_counts(
    tx_bits: np.ndarray,
    params: ChannelParams,
    rng: np.random.Generator,
    include_own_slot: bool = True,
) -> np.ndarray:
    """Absorbed-molecule counts per slot, of _count_dtype, for a 0/1 pattern.

    Each 1 releases M molecules whose landing slots are multinomial over
    (p_1 .. p_L, never-absorbed), drawn as one joint table draw of the
    own-slot and tail counts and one guide-table lag per tail molecule.
    With include_own_slot=False the same-slot arrivals are still drawn (the
    tail depends on them) but dropped, leaving pure interference counts.
    Contributions beyond the pattern end are discarded.
    """
    L = params.L
    S = int(tx_bits.size)
    counts = np.zeros(S + L, dtype=_count_dtype(params))
    ones = np.flatnonzero(tx_bits)
    with _TABLES_LOCK:
        emission, lags = _transport_tables(replace(params, sigma_n2=0.0))
    fixup = np.random.PCG64(rng.bit_generator.random_raw()).random_raw
    cells = rng.bit_generator.random_raw((ones.size + 3) // 4).view(np.uint16)
    drawn = emission.sample(cells[: ones.size], fixup)
    shift = params.M.bit_length()
    tail = drawn >> shift
    if include_own_slot:
        counts[ones] += drawn - (tail << shift)
    if lags is None:
        return counts[:S]
    cells = cells[ones.size :]
    step = max(1, TRANSPORT_CHUNK * ones.size // max(1, int(tail.sum())))
    for lo in range(0, ones.size, step):
        pos, n = ones[lo : lo + step], tail[lo : lo + step]
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


def _observe(tx_bits: np.ndarray, points, rng: np.random.Generator):
    """Noise-free slot counts of tx_bits at each of `points`, one channel at
    ascending M (simulate_stream sorts them): transport at the first M, then
    each higher M adds the molecules not yet sent into the running counts
    (independent multinomials sum to the multinomial of their total).  A
    yielded array is valid until the next one is drawn."""
    if len({replace(pt, M=0, sigma_n2=0.0) for pt in points}) != 1:
        raise ValueError("observed points must differ in M and sigma_n2 only")
    if any(a.M > b.M for a, b in itertools.pairwise(points)):
        raise ValueError("observed points must come in ascending M")
    counts = transmit_counts(tx_bits, points[0], rng)
    sent = points[0].M
    for pt in points:
        if pt.M > sent:
            if counts.dtype != _count_dtype(pt):  # the running sum outgrows int32
                counts = counts.astype(np.int64)
            counts += transmit_counts(tx_bits, replace(pt, M=pt.M - sent), rng)
            sent = pt.M
        yield counts


def simulate_stream(tx_bits, points, rng_seed, thresholds) -> list[np.ndarray]:
    """Per-slot decisions at each of `points`, in their order, of a 0/1
    pattern sent as one slot stream, each slot hit by interference from the
    slots before it: `detect` over `_observe`'s counts, drawn at the points
    sorted stably by M.  Identical seeds, same decisions."""
    tx = np.asarray(tx_bits, dtype=np.uint8)
    if tx.size == 0:
        raise ValueError("need at least one transmitted slot")
    if len(thresholds) != len(points):
        raise ValueError(f"{len(points)} points, but {len(thresholds)} thresholds")
    if not all(theta >= 0 for theta in thresholds):  # also rejects NaN
        raise ValueError(f"thresholds must be non-negative, got {thresholds}")
    order = sorted(range(len(points)), key=lambda i: points[i].M)
    rng = np.random.default_rng(rng_seed)
    observed = zip(order, _observe(tx, [points[i] for i in order], rng))
    decided = {i: detect(c, thresholds[i], points[i].sigma_n2, rng) for i, c in observed}
    return [decided[i] for i in range(len(points))]


def slot_law(point: ChannelParams, weights) -> tuple[np.ndarray, np.ndarray]:
    """Exact pmfs of one slot's noise-free count, with its own bit at 0 and at
    1, when the bit g slots back is 1 with probability weights[g - 1], g = 1
    .. L-1, independently: the pgf prod_d (1 - w_d + w_d (1 - p_d + p_d z)^M)
    over lags d = 1 .. L, with w_1 = 0 or 1 and w_{g+1} = weights[g - 1].
    Each Bin(M, p_d) and convolution sheds only its upper tail below 2^-100;
    all terms are positive, so the pmfs carry no rounding floor."""
    p, M = slot_probs(point), point.M
    log_pmf, counts = _binomial_log_pmf(M), np.arange(M + 1)

    def cut(pmf):  # drop the upper tail below the floor
        return pmf[: np.flatnonzero(pmf > math.exp(LOG_FLOOR))[-1] + 1]

    off = np.ones(1)
    for p_d, w in zip(p[1:], weights, strict=True):
        mix = w * cut(np.exp(log_pmf(M, counts, p_d)))
        mix[0] += 1.0 - w
        off = cut(np.convolve(off, mix))
    on = cut(np.convolve(off, cut(np.exp(log_pmf(M, counts, p[0])))))
    size = max(off.size, on.size)
    return tuple(np.pad(pmf, (0, size - pmf.size)) for pmf in (off, on))


def _above(gap: np.ndarray, sigma_n2: float) -> np.ndarray:
    """P(count + noise >= theta) at each gap = theta - count: P(noise >= |gap|)
    straight from erfc, or its complement; a step at sigma_n2 = 0.  The noise
    rule of detection_threshold's grid and of detect's decisions."""
    if not sigma_n2 > 0:
        return (gap <= 0).astype(np.float64)
    z = np.abs(gap) / math.sqrt(2.0 * sigma_n2)
    # row by row, so that no list of all z.size Python floats is ever held
    erfc = itertools.chain.from_iterable(map(math.erfc, row.tolist()) for row in np.atleast_2d(z))
    tail = np.fromiter(erfc, np.float64, z.size).reshape(z.shape) / 2
    return np.where(gap > 0, tail, 1.0 - tail)


def detection_threshold(point: ChannelParams, law) -> float:
    """Threshold minimizing an uncoded slot's error probability, P(count +
    noise < theta | 1) / 2 + P(count + noise >= theta | 0) / 2, over 256 evenly
    spaced values spanning [0, 2 M p_1]; ties resolve to the lowest one.
    `law` is an (off, on) pair of weights over counts 0, 1, ... for i.i.d.
    equiprobable bits: the exact pmfs slot_law(point, [1/2] * (L - 1)), or a
    pilot's count histograms, whose weighted errors are its misses plus false
    alarms.  Exact, it is a pure function of the point, shared by every code
    under comparison so that detection does not favour any of them."""
    peak = point.M * float(slot_probs(point)[0])
    if peak <= 0:
        raise ValueError("cannot calibrate with M * p_1 = 0")
    off, on = law
    grid = np.linspace(0.0, 2.0 * peak, 256)
    above = _above(grid[:, None] - np.arange(on.size), point.sigma_n2)
    errors = (1.0 - above) @ on + above @ off
    return float(grid[int(np.argmin(errors))])


def calibrate_threshold(params: ChannelParams, pilot_length: int, rng_seed) -> float:
    """detection_threshold over a sampled law: the noise-free count
    histograms of an uncoded pilot, a stream of i.i.d. equiprobable bits
    through the same channel's transport, with the noise then added exactly.
    Deterministic for a fixed seed."""
    if pilot_length < 10_000:
        raise ValueError("pilot must cover at least 10^4 slots")
    rng = np.random.default_rng(rng_seed)
    sent = rng.integers(0, 2, size=pilot_length, dtype=np.uint8)
    counts = transmit_counts(sent, params, rng)
    law = [np.bincount(counts[sent == bit], minlength=counts.max() + 1) for bit in (0, 1)]
    return detection_threshold(params, law)


def detect(counts, threshold: float, sigma_n2: float = 0.0, rng=None) -> np.ndarray:
    """Per-slot decisions, 1 with probability P(count + noise >= threshold):
    noise-free, where the count reaches it, drawing nothing; noisy, over
    integer counts, from rng to 2^-64 with the _above table of counts 0 ..
    max, a 16-bit cell per slot below the top 16 bits of floor(above * 2^64),
    or equal and a fix-up word's top 48 bits below the rest (2^48 at 1)."""
    if not threshold >= 0:  # also rejects NaN
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    if not 0 <= sigma_n2 < math.inf:  # also rejects NaN
        raise ValueError(f"sigma_n2 must be finite and non-negative, got {sigma_n2}")
    counts = np.asarray(counts)
    if not sigma_n2 > 0:
        return (counts >= threshold).view(np.uint8)
    if rng is None:
        raise ValueError(f"sigma_n2 = {sigma_n2} needs a generator to draw the noise")
    if counts.dtype.kind not in "iu":
        raise ValueError(f"noisy decisions need integer counts, got {counts.dtype}")
    if counts.min(initial=0) < 0:
        raise ValueError(f"counts must be non-negative, got {counts.min()}")
    scaled = np.ldexp(_above(threshold - np.arange(counts.max(initial=0) + 1), sigma_n2), 16)
    top = np.minimum(np.floor(scaled), 65535)
    rest = np.ldexp(scaled - top, 48).astype(np.uint64)  # exact: the bits below the top 16
    top = np.take(top.astype(np.uint16), counts)
    cells = rng.bit_generator.random_raw((counts.size + 3) // 4).view(np.uint16)[: counts.size]
    out = (cells < top).view(np.uint8)
    tie = np.flatnonzero(cells == top)
    out[tie] = rng.bit_generator.random_raw(tie.size) >> 16 < rest[counts[tie]]
    return out
