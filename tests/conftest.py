import math
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from isiecc import ChannelParams, CodeSpec, channel, harness, slot_probs
from isiecc.codec import swap_pairs


@pytest.fixture(scope="session")
def params_03():
    return ChannelParams(D=79.4, r=5.0, r0=10.0, ts=0.3, L=40, M=300, sigma_n2=0.0)


@pytest.fixture(scope="session")
def profile_03(params_03):
    return slot_probs(params_03)


def enumerate_weight_class(m: int, i: int) -> np.ndarray:
    """Independent oracle: filter all m-bit values by weight, sort decreasing."""
    vals = sorted((v for v in range(1 << m) if bin(v).count("1") == i), reverse=True)
    return np.array(
        [[(v >> (m - 1 - j)) & 1 for j in range(m)] for v in vals], dtype=np.uint8
    )


def isi_brute(word, i: int, p) -> float:
    """Independent oracle: direct summation of c_l * p_{i-l+1}, reading p as
    0 past p_L (a molecule not absorbed within L slots is never seen)."""
    return math.fsum(
        float(word[l - 1]) * float(p[i - l]) for l in range(1, i) if i - l < len(p)
    )


@lru_cache(maxsize=None)
def brute_codebook(k: int, m: int) -> np.ndarray:
    """Independent oracle: the codebook assembled by enumeration.  Messages
    count down from 2^k - 1; parity bodies are the m-bit values of weight 0,
    1, ... sorted decreasing within each weight, cut at 2^k rows; the extra
    bit is 1 when the body weight is even."""
    bodies: list[int] = []
    weight = 0
    while len(bodies) < 1 << k:
        cls = sorted((sum(1 << b for b in c) for c in combinations(range(m), weight)), reverse=True)
        bodies += [(v, weight) for v in cls]
        weight += 1
    rows = []
    for r, (body, w) in enumerate(bodies[: 1 << k]):
        u = (1 << k) - 1 - r
        bits = [(u >> (k - 1 - j)) & 1 for j in range(k)]
        bits += [(body >> (m - 1 - j)) & 1 for j in range(m)]
        rows.append(bits + [1 - w % 2])
    return np.array(rows, dtype=np.uint8)


def _swapped(word, spec: CodeSpec) -> np.ndarray:
    out = np.array(word, dtype=np.uint8)
    for a, b in swap_pairs(spec.k):
        out[[a - 1, b - 1]] = out[[b - 1, a - 1]]
    return out


def brute_encode(u, spec: CodeSpec, post_encoding: bool = True) -> np.ndarray:
    """Independent oracle: look the message up in the enumerated codebook,
    then apply the swaps unless post_encoding is False."""
    book = brute_codebook(spec.k, spec.m)
    raw = next(row for row in book if (row[: spec.k] == u).all()).copy()
    return _swapped(raw, spec) if post_encoding else raw


def brute_decode(word, spec: CodeSpec) -> np.ndarray:
    """Independent oracle: undo the swaps, then find a codeword carrying the
    received parity body and extra bit; without one, pass the message bits
    through."""
    v = _swapped(word, spec)
    k = spec.k
    for row in brute_codebook(k, spec.m):
        if (row[k:] == v[k:]).all():
            return row[:k].copy()
    return v[:k].copy()


def multinomial_counts(tx_bits, params, rng, include_own_slot=True) -> np.ndarray:
    """Reference transport: one numpy multinomial row of M trials over
    (p_1 .. p_L, never-absorbed) per transmitted 1, scattered lag by lag."""
    p = slot_probs(params)
    L = params.L
    ones = np.flatnonzero(tx_bits)
    counts = np.zeros(tx_bits.size + L)
    draws = rng.multinomial(params.M, np.append(p, 1.0 - p.sum()), size=ones.size)
    for d in range(0 if include_own_slot else 1, L):
        counts[ones + d] += draws[:, d]
    return counts[: tx_bits.size]


def threshold_grid(params) -> np.ndarray:
    """The 256 candidate thresholds, evenly spaced over [0, 2 M p_1]."""
    return np.linspace(0.0, 2.0 * params.M * float(slot_probs(params)[0]), 256)


def pilot_errors(params, pilot_length: int, rng_seed) -> np.ndarray:
    """Sampled oracle: misses plus false alarms of each grid threshold on one
    uncoded pilot of i.i.d. equiprobable bits through the channel, each
    count observed with its own Gaussian noise."""
    rng = np.random.default_rng(rng_seed)
    sent = rng.integers(0, 2, size=pilot_length, dtype=np.uint8)
    (counts,) = channel._observe(sent, [params], rng)
    counts = counts + math.sqrt(params.sigma_n2) * rng.standard_normal(counts.size)
    grid = threshold_grid(params)
    on, off = np.sort(counts[sent == 1]), np.sort(counts[sent == 0])
    return np.searchsorted(on, grid) + off.size - np.searchsorted(off, grid)


def record_work(monkeypatch) -> list:
    """Names of the threshold and transport stages a run calls, in call order."""
    calls = []
    stages = [(harness, "slot_law"), (harness, "detection_threshold")]
    stages += [(harness, "calibrate_threshold"), (channel, "_transport_tables")]
    for module, name in stages:

        def recorded(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    return calls
