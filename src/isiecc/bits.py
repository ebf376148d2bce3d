"""Small helpers for binary sequences.

Bit sequences are numpy uint8 arrays of 0/1 values, leftmost bit first
(most significant when read as a decimal value).
"""

from __future__ import annotations

import numpy as np


def parse_bits(s: str) -> np.ndarray:
    """Parse a string like '01101' into a bit array."""
    if not s or any(ch not in "01" for ch in s):
        raise ValueError(f"expected a non-empty string of 0/1 characters, got {s!r}")
    return np.frombuffer(s.encode("ascii"), dtype=np.uint8) - ord("0")


def bits_to_str(bits) -> str:
    return "".join("1" if b else "0" for b in np.asarray(bits).ravel())


def as_bits(bits) -> np.ndarray:
    """Coerce a str/sequence into a validated uint8 bit array."""
    if isinstance(bits, str):
        return parse_bits(bits)
    arr = np.asarray(bits)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("bit sequence must be a non-empty 1-D array")
    # checked before the cast, which would truncate 1.5 to 1 and wrap -1
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("bit sequence may contain only 0 and 1")
    return arr.astype(np.uint8)

