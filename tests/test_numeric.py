import pytest

import sigforge.numeric as numeric
from sigforge.errors import NotInvertibleError
from sigforge.numeric import (
    MILLER_RABIN_ROUNDS,
    RngHandle,
    gen_prime,
    is_probable_prime,
    mod_exp,
    mod_inv,
    rand_below,
    random_candidate_rounds,
)

from oracles import brute_mod_inv, naive_mod_exp, trial_division_is_prime


class TestModExp:
    def test_zero_exponent_is_one(self):
        for a in (0, 1, 5, 123456789):
            assert mod_exp(a, 0, 97) == 1

    def test_order_nine_element(self):
        # 5 has multiplicative order 9 mod 19
        assert mod_exp(5, 117, 19) == 1
        assert naive_mod_exp(5, 117, 19) == 1

    def test_toy_rsa_roundtrip(self):
        # p=61, q=53, e=17, d=2753: signing then verifying recovers the value
        n, e, d = 3233, 17, 2753
        signed = mod_exp(65, d, n)
        assert signed == naive_mod_exp(65, d, n)
        assert mod_exp(signed, e, n) == 65

    def test_exhaustive_against_repeated_multiplication(self):
        # all base, exp, mod < 2^8; the oracle multiplies one factor at a time
        for mod in range(2, 256):
            for base in range(256):
                acc = 1 % mod
                b = base % mod
                for exp in range(256):
                    assert mod_exp(base, exp, mod) == acc, (base, exp, mod)
                    acc = (acc * b) % mod

    def test_spot_check_against_naive_oracle(self):
        for base, exp, mod in ((7, 13, 255), (2, 200, 101), (250, 99, 19)):
            assert mod_exp(base, exp, mod) == naive_mod_exp(base, exp, mod)

    def test_matches_builtin_pow_on_large_values(self):
        rng = RngHandle(42)
        for _ in range(50):
            b = rng.getrandbits(256)
            e = rng.getrandbits(256)
            m = rng.getrandbits(256) | 1 | (1 << 255)
            assert mod_exp(b, e, m) == pow(b, e, m)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            mod_exp(2, 3, 1)
        with pytest.raises(ValueError):
            mod_exp(2, 3, 0)

    def test_negative_exponent(self):
        with pytest.raises(ValueError, match="negative exponents"):
            mod_exp(2, -1, 11)


class TestCombPow:
    """The fixed-base comb mod p equals pow for every base and every exponent
    it reads; nothing reduces an exponent modulo a base's order."""

    def test_every_base_and_exponent_on_the_toy_group(self):
        # p = 23, q = 11: e = 1, so the comb reads every k below 2^COMB_ROWS;
        # Z_23 holds bases of order 22 (5), 11 (4), 2 (22) and 1 (1), and 0
        orders = {b: next(i for i in range(1, 23) if pow(b, i, 23) == 1) for b in range(1, 23)}
        assert {orders[5], orders[4], orders[22], orders[1]} == {22, 11, 2, 1}
        for base in (5, 4, 22, 1, 0):
            for k in range(1 << numeric.COMB_ROWS):
                assert numeric.comb_pow(23, 4, (base, k)) == pow(base, k, 23), (base, k)

    def test_two_terms_share_one_product(self):
        rng = RngHandle(60)
        for _ in range(200):
            (a, j), (b, k) = ((rand_below(23, rng), rng.getrandbits(numeric.COMB_ROWS)) for _ in range(2))
            assert numeric.comb_pow(23, 4, (a, j), (b, k)) == pow(a, j, 23) * pow(b, k, 23) % 23

    @pytest.mark.parametrize("k", (-1, 1 << numeric.COMB_ROWS, 1 << 100))
    def test_exponent_outside_the_comb_refused(self, k):
        with pytest.raises(ValueError, match="comb exponent"):
            numeric.comb_pow(23, 4, (5, k))


class TestModInv:
    def test_identity(self):
        assert mod_inv(1, 97) == 1

    def test_small_case(self):
        assert mod_inv(3, 11) == 4
        assert brute_mod_inv(3, 11) == 4

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            mod_inv(4, 8)

    @pytest.mark.parametrize("modulus", (1, 0, -7))
    def test_bad_modulus(self, modulus):
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            mod_inv(3, modulus)

    def test_exhaustive_small_moduli(self):
        for m in range(2, 60):
            for a in range(m):
                expected = brute_mod_inv(a, m)
                if expected is None:
                    with pytest.raises(NotInvertibleError):
                        mod_inv(a, m)
                else:
                    got = mod_inv(a, m)
                    assert got == expected
                    assert 0 < got < m
                    assert (a * got) % m == 1

    def test_composite_modulus(self):
        # RSA needs inverses modulo phi(n), which is composite
        phi = 3120
        assert (17 * mod_inv(17, phi)) % phi == 1
        assert mod_inv(17, phi) == 2753

    def test_inverse_property_random(self):
        rng = RngHandle(7)
        m = (1 << 255) - 19
        for _ in range(50):
            a = rand_below(m, rng)
            assert (a * mod_inv(a, m)) % m == 1


class TestFermatProperty:
    def test_prime_powers_give_one(self):
        # a^(n-1) = 1 mod n for prime n and all a in [1, n)
        for n in (5, 19, 97, 101):
            for a in range(1, n):
                assert mod_exp(a, n - 1, n) == 1


class TestIsProbablePrime:
    def test_units_and_small(self):
        assert not is_probable_prime(1, 10)
        assert not is_probable_prime(0, 10)
        assert is_probable_prime(2, 10)
        assert is_probable_prime(97, 10)

    def test_known_prime(self):
        assert is_probable_prime(7919, 20)
        assert trial_division_is_prime(7919)

    def test_carmichael_number_rejected(self):
        # 561 = 3*11*17 fools plain Fermat tests
        assert not is_probable_prime(561, 20)
        assert not trial_division_is_prime(561)
        # 17257 * 34513 * 51769 is one too (Chernick's 6k+1, 12k+1, 18k+1 at
        # k = 2876), with every factor above the trial-division bound 2^14
        chernick = 17257 * 34513 * 51769
        assert mod_exp(2, chernick - 1, chernick) == 1
        for n in (1105, 1729, 2465, 2821, 6601, 8911, chernick):
            assert not is_probable_prime(n, 10), n

    def test_agrees_with_trial_division(self):
        # spans the trial-division bound 2^14 on both sides
        for n in range(-2, 1 << 17):
            assert is_probable_prime(n, 10) == trial_division_is_prime(n), n

    def test_products_of_primes_just_above_the_trial_division_bound(self):
        # no factor below 2^14, and past 2^28, so only Miller-Rabin rejects them
        primes = (16411, 16417, 16421, 16427)
        for p in primes:
            assert is_probable_prime(p, 10)
            for q in primes:
                assert not is_probable_prime(p * q, 10), (p, q)

    def test_square_of_the_largest_prime_below_the_bound(self):
        # 16381^2 < 2^28: trial division alone must reject it
        assert 16381**2 < 1 << 28
        assert not is_probable_prime(16381**2, 10)

    def test_strong_base_2_pseudoprime_rejected(self):
        # 3215031751 = 151 * 751 * 28351 passes the strong test to bases 2, 3, 5, 7
        n = 3215031751
        d, r = (n - 1) >> 1, 1
        while d % 2 == 0:
            d, r = d >> 1, r + 1
        x = mod_exp(2, d, n)
        assert x == 1 or any(mod_exp(x, 1 << i, n) == n - 1 for i in range(r))
        assert not is_probable_prime(n, 10)

    def test_large_known_values(self):
        assert is_probable_prime((1 << 255) - 19, 40)
        assert not is_probable_prime((1 << 255) - 18, 40)

    def test_rounds_validated(self):
        with pytest.raises(ValueError):
            is_probable_prime(97, 0)


class TestRandomCandidateRounds:
    def test_table_values(self):
        # HAC Table 4.4 at 2^-80, with a floor of five rounds
        expected = {100: 27, 149: 27, 150: 18, 160: 18, 224: 15, 256: 12, 300: 9, 512: 6, 550: 5, 1024: 5, 4096: 5}
        for bits, rounds in expected.items():
            assert random_candidate_rounds(bits) == rounds, bits

    def test_below_the_table_uses_the_default(self):
        assert random_candidate_rounds(99) == MILLER_RABIN_ROUNDS
        assert random_candidate_rounds(8) == MILLER_RABIN_ROUNDS

    def test_gen_prime_tests_candidates_with_the_schedule(self, monkeypatch):
        seen = set()

        def spy(n, rounds=MILLER_RABIN_ROUNDS):
            seen.add(rounds)
            return is_probable_prime(n, rounds)

        monkeypatch.setattr(numeric, "is_probable_prime", spy)
        for bits, rounds in ((160, 18), (512, 6), (1024, 5)):
            seen.clear()
            gen_prime(bits, RngHandle(bits))
            assert seen == {rounds}, bits

    def test_never_rises_with_size(self):
        counts = [random_candidate_rounds(bits) for bits in range(8, 2048)]
        assert counts == sorted(counts, reverse=True)
        assert min(counts) == 5


class TestGenPrime:
    def test_eight_bit_range(self):
        rng = RngHandle(1)
        for _ in range(20):
            p = gen_prime(8, rng)
            assert 128 <= p <= 255
            assert trial_division_is_prime(p)

    def test_exact_bit_length(self):
        rng = RngHandle(2)
        for bits in (8, 16, 24, 48, 64):
            p = gen_prime(bits, rng)
            assert p.bit_length() == bits
            assert p % 2 == 1

    def test_seeded_replay(self):
        assert gen_prime(16, RngHandle(99)) == gen_prime(16, RngHandle(99))

    def test_large_prime_self_check(self):
        p = gen_prime(512, RngHandle(5))
        assert p.bit_length() == 512
        assert is_probable_prime(p, 40)

    def test_too_small(self):
        with pytest.raises(ValueError):
            gen_prime(7, RngHandle(0))


class TestRandBelow:
    def test_single_value(self):
        rng = RngHandle(3)
        assert all(rand_below(2, rng) == 1 for _ in range(10))

    def test_range_contract(self):
        rng = RngHandle(4)
        q = 11
        draws = [rand_below(q, rng) for _ in range(10_000)]
        assert all(1 <= v <= q - 1 for v in draws)
        assert set(draws) == set(range(1, q))  # all values reachable

    def test_seeded_replay(self):
        a = [rand_below(1000, RngHandle(8)) for _ in range(5)]
        b = [rand_below(1000, RngHandle(8)) for _ in range(5)]
        # same seed, fresh handle each draw: both sequences start identically
        assert a == b
        r1, r2 = RngHandle(123), RngHandle(123)
        assert [rand_below(10**9, r1) for _ in range(100)] == [
            rand_below(10**9, r2) for _ in range(100)
        ]

    def test_bad_upper(self):
        with pytest.raises(ValueError):
            rand_below(1, RngHandle(0))
