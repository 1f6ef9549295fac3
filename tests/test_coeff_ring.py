import random

import pytest

from polyarena.coeff_ring import DEFAULT_FFT_PRIME, Zq, is_prime
from polyarena.errors import NoSuchRoot, NotPrime, ZeroInverse


def egcd_inverse(a, q):
    # independent oracle: extended Euclid
    old_r, r = a % q, q
    old_s, s = 1, 0
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
    assert old_r == 1
    return old_s % q


def test_mod_inv_examples():
    ring = Zq(97)
    assert ring.inv(1) == 1
    assert ring.inv(3) == egcd_inverse(3, 97) == 65
    assert ring.inv(96) == 96  # (-1)^2 = 1


def test_mod_inv_zero_rejected():
    with pytest.raises(ZeroInverse):
        Zq(97).inv(0)


@pytest.mark.parametrize("q", (2, 3, 97, 469762049, 2**61 - 1, 2**127 - 1))
def test_mod_inv_matches_fermat(q):
    # pow(a, -1, q) against a^(q - 2), reduced or not; 0 and every multiple
    # of q still have no inverse
    ring = Zq(q)
    rng = random.Random(f"fermat-{q}")
    for a in {1, q - 1, *(rng.randrange(1, q) for _ in range(50))} - {0}:
        for rep in (a, a + q, a - 3 * q):
            assert ring.inv(rep) == pow(a, q - 2, q)
    for zero in (0, q, -q, 5 * q):
        with pytest.raises(ZeroInverse):
            ring.inv(zero)


def test_mod_inv_multiplicative():
    ring = Zq(97)
    rng = random.Random(0)
    for _ in range(200):
        a = rng.randrange(1, 97)
        b = rng.randrange(1, 97)
        assert ring.inv(a * b % 97) == ring.inv(a) * ring.inv(b) % 97


def test_principal_root_examples():
    ring = Zq(97)
    assert ring.find_principal_root(1).omega == 1
    root4 = ring.find_principal_root(4)
    assert root4.omega == 22
    assert pow(22, 2, 97) == 96 and pow(22, 4, 97) == 1


def test_principal_root_large_fft_prime():
    ring = Zq(DEFAULT_FFT_PRIME)
    order = 1 << 26
    root = ring.find_principal_root(order)
    assert ring.is_principal_root(root.omega, order)
    # omega^(n/2) must be -1 for even orders
    assert pow(root.omega, order // 2, ring.q) == ring.q - 1


def test_principal_root_definition_exhaustive_small():
    ring = Zq(97)
    for order in (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 96):
        w = ring.find_principal_root(order).omega
        assert pow(w, order, 97) == 1
        for i in range(1, order):
            assert pow(w, i, 97) != 1  # omega^i - 1 invertible


def test_no_such_root():
    with pytest.raises(NoSuchRoot):
        Zq(97).find_principal_root(5)  # 5 does not divide 96
    with pytest.raises(NoSuchRoot):
        Zq(97).find_principal_root(64)


def test_non_prime_modulus_rejected():
    for bad in (1, 4, 91, 561, 1 << 20):
        with pytest.raises(NotPrime):
            Zq(bad)


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(97) and is_prime(DEFAULT_FFT_PRIME)
    assert not is_prime(0) and not is_prime(1) and not is_prime(561)


def test_root_consistency_under_power():
    ring = Zq(97)
    for n in (4, 8, 16, 32):
        w = ring.find_principal_root(n).omega
        assert pow(w, n // 2, 97) == 96  # omega^(n/2) = -1 when n even
