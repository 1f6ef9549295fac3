"""Arithmetic in Z/qZ for an odd prime q, plus principal roots of unity.

A ring context is immutable once created and carries the modulus; field
elements themselves are plain ints in [0, q).  FFT-friendly primes such as
469762049 = 7 * 2**26 + 1 provide power-of-two principal roots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoSuchRoot, NotPrime, ZeroInverse

DEFAULT_TEST_PRIME = 97
DEFAULT_FFT_PRIME = 469762049  # 7 * 2**26 + 1

# Witness set is deterministic for all 64-bit integers and far beyond.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class RootOfUnity:
    omega: int
    order: int


class Zq:
    """Immutable context for the prime field Z/qZ."""

    __slots__ = ("q", "_factors_qm1")

    def __init__(self, q: int):
        if not is_prime(q):
            raise NotPrime(f"modulus {q} is not prime")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_factors_qm1", None)

    def __repr__(self):
        return f"Zq({self.q})"

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise ZeroInverse("0 has no inverse")
        return pow(a, -1, self.q)

    def _qm1_factors(self) -> list[int]:
        cached = self._factors_qm1
        if cached is None:
            cached = _prime_factors(self.q - 1)
            object.__setattr__(self, "_factors_qm1", cached)
        return cached

    def generator(self) -> int:
        """Smallest generator of the multiplicative group."""
        q = self.q
        if q == 2:
            return 1
        facs = self._qm1_factors()
        g = 2
        while True:
            if all(pow(g, (q - 1) // p, q) != 1 for p in facs):
                return g
            g += 1

    def find_principal_root(self, order: int) -> RootOfUnity:
        """Principal root of unity of the given order.

        In a field an element of exact multiplicative order n satisfies
        omega**i != 1 for 0 < i < n, hence omega**i - 1 is invertible and
        the root is principal.
        """
        q = self.q
        if order <= 0 or (q - 1) % order != 0:
            raise NoSuchRoot(f"order {order} does not divide q-1 = {q - 1}")
        if order == 1:
            return RootOfUnity(1, 1)
        w = pow(self.generator(), (q - 1) // order, q)
        return RootOfUnity(w, order)

    def is_principal_root(self, omega: int, order: int) -> bool:
        if pow(omega, order, self.q) != 1:
            return False
        return all(pow(omega, order // p, self.q) != 1 for p in _prime_factors(order))

    def root_for_length(self, length: int) -> RootOfUnity:
        """Principal root of order 2**ceil(log2(length))."""
        p2 = 1
        while p2 < length:
            p2 *= 2
        return self.find_principal_root(p2)
