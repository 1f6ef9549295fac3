"""Shared helpers for the test suite."""

import random

from polyarena import Zq
from polyarena.dense_ref import schoolbook_mul

RING97 = Zq(97)
RING_FFT = Zq(469762049)


def rand_poly(rng: random.Random, q: int, n: int) -> list[int]:
    return [rng.randrange(q) for _ in range(n)]


def full_product(ring, f, g):
    return schoolbook_mul(ring, f, g)


def low_product(ring, f, g, t):
    full = schoolbook_mul(ring, f, g)
    out = full[:t]
    return out + [0] * (t - len(out))


def slice_product(ring, f, g, s, r):
    full = schoolbook_mul(ring, f, g)
    return [(full[s + i] if 0 <= s + i < len(full) else 0) for i in range(r)]


def log_uniform_size(rng: random.Random, lo_exp: float = 0.0, hi_exp: float = 9.0) -> int:
    """Random size covering [1, 512] with a bias toward small values."""
    if rng.random() < 0.8:
        e = rng.uniform(lo_exp, min(6.5, hi_exp))
    else:
        e = rng.uniform(min(6.5, hi_exp), hi_exp)
    return max(1, min(512, round(2.0 ** e)))


def distinct_nonzero(rng: random.Random, q: int, n: int) -> list[int]:
    """n distinct values in [1, q), drawn by rejection.

    rng.sample(range(1, q), n) fails once q exceeds 2^63; this works for
    any q with n < q.
    """
    if n >= q:
        raise ValueError(f"cannot draw {n} distinct nonzero values mod {q}")
    seen: set[int] = set()
    out = []
    while len(out) < n:
        v = rng.randrange(1, q)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out
