import random

import pytest

from sigforge.binary_field import BinaryField, is_irreducible
from sigforge.errors import NotInvertibleError
from sigforge.registry import get_curve

from oracles import gf_inv_euclid, gf_inv_naive, gf_mul_naive, gf_mul_shift

GF16 = BinaryField(4, 0b10011)  # x^4 + x + 1
GF256 = BinaryField(8, 0b100011011)  # x^8 + x^4 + x^3 + x + 1 (AES polynomial)


def test_field_construction_validates_polynomial():
    with pytest.raises(ValueError):
        BinaryField(4, 0b10010)  # constant term 0
    with pytest.raises(ValueError):
        BinaryField(4, 0b1011)  # degree too low
    with pytest.raises(ValueError, match="extension degree"):
        BinaryField(0, 0b1)  # degree 0 and constant term 1, but no field


class TestMul:
    def test_identity(self):
        for a in range(16):
            assert GF16.mul(a, 1) == a

    def test_known_products(self):
        # (x^2+x)(x+1) = x^3+x and x^3*x = x^4 = x+1 in GF(16)
        assert GF16.mul(6, 3) == 10
        assert GF16.mul(8, 2) == 3

    def test_exhaustive_against_schoolbook_oracle(self):
        for a in range(16):
            for b in range(16):
                assert GF16.mul(a, b) == gf_mul_naive(a, b, GF16.poly)

    def test_result_in_range_gf256(self):
        for a in range(0, 256, 5):
            for b in range(0, 256, 7):
                got = GF256.mul(a, b)
                assert 0 <= got < 256
                assert got == gf_mul_naive(a, b, GF256.poly)


class TestSquare:
    def test_trivial(self):
        assert GF16.square(0) == 0
        assert GF16.square(1) == 1

    def test_matches_mul_exhaustively(self):
        for a in range(16):
            assert GF16.square(a) == GF16.mul(a, a)
        for a in range(256):
            assert GF256.square(a) == GF256.mul(a, a)


class TestInv:
    def test_one(self):
        assert GF16.inv(1) == 1

    def test_known_inverse(self):
        # x * (x^3 + 1) = x^4 + x = 1
        assert GF16.inv(2) == 9
        assert gf_inv_naive(2, GF16.poly, 4) == 9

    def test_zero_rejected(self):
        with pytest.raises(NotInvertibleError):
            GF16.inv(0)

    def test_range_check(self):
        # mul and square trust their operands; inv keeps its guard, since a
        # multiple of the polynomial would never reach u = 1 in the Euclid loop
        for a in (-1, 16, GF16.poly, GF16.poly << 3):
            with pytest.raises(NotInvertibleError, match="not a nonzero element"):
                GF16.inv(a)

    def test_exhaustive_both_fields(self):
        for field, size in ((GF16, 16), (GF256, 256)):
            for a in range(1, size):
                b = field.inv(a)
                assert field.mul(a, b) == 1


class TestFieldAxioms:
    @pytest.mark.parametrize("field,size", [(GF16, 16), (GF256, 256)])
    def test_commutativity(self, field, size):
        for a in range(size):
            for b in range(a, size):
                assert field.mul(a, b) == field.mul(b, a)

    def test_associativity_and_distributivity_gf16(self):
        for a in range(16):
            for b in range(16):
                for c in range(16):
                    assert GF16.mul(GF16.mul(a, b), c) == GF16.mul(a, GF16.mul(b, c))
                    assert GF16.mul(a, b ^ c) == GF16.mul(a, b) ^ GF16.mul(a, c)

    def test_associativity_and_distributivity_gf256_sampled(self):
        triples = [(a, b, c) for a in range(2, 256, 23) for b in range(3, 256, 29) for c in range(5, 256, 31)]
        for a, b, c in triples:
            assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))
            assert GF256.mul(a, b ^ c) == GF256.mul(a, b) ^ GF256.mul(a, c)

    @pytest.mark.parametrize("field,size", [(GF16, 16), (GF256, 256)])
    def test_multiplicative_group_order(self, field, size):
        # a^(2^m - 1) = 1 for every nonzero a
        for a in range(1, size):
            acc = 1
            for _ in range(size - 1):
                acc = field.mul(acc, a)
            assert acc == 1


class TestIrreducibility:
    def test_known_irreducible(self):
        assert is_irreducible(0b10011)  # x^4+x+1
        assert is_irreducible(0b11111)  # x^4+x^3+x^2+x+1
        assert is_irreducible(0b111)  # x^2+x+1

    def test_known_reducible(self):
        assert not is_irreducible(0b10101)  # x^4+x^2+1 = (x^2+x+1)^2
        assert not is_irreducible(0b110)  # divisible by x
        assert not is_irreducible(0b1001)  # x^3+1 = (x+1)(x^2+x+1)

    def test_exhaustive_degree_4(self):
        # degree-4 polynomials: exactly three are irreducible
        irreducible = [p for p in range(0b10000, 0b100000) if is_irreducible(p)]
        assert irreducible == [0b10011, 0b11001, 0b11111]

    def test_standard_curve_polynomials(self):
        assert is_irreducible((1 << 113) | (1 << 9) | 1)
        assert is_irreducible((1 << 163) | (1 << 7) | (1 << 6) | (1 << 3) | 1)
        assert is_irreducible((1 << 233) | (1 << 74) | 1)


# more than 255 bits, so a multiplication takes its operand in two lanes
GF283 = BinaryField(283, (1 << 283) | (1 << 12) | (1 << 7) | (1 << 5) | 1)
# every term below x^100 present: each reduction fold lowers the degree by one
GF_DENSE100 = BinaryField(100, (1 << 101) - 1)
_UNNAMED_FIELDS = {"x^283+x^12+x^7+x^5+1": GF283, "all-ones degree 100": GF_DENSE100}


def _operands(field, count, seed):
    edges = [0, 1, 1 << (field.m - 1), (1 << field.m) - 1]
    rng = random.Random(seed)
    return edges + [rng.getrandbits(field.m) for _ in range(count)]


class TestLargeFieldsAgainstOracle:
    @pytest.fixture(scope="class", params=["sect113r1", "k163", "k233", *_UNNAMED_FIELDS])
    def field(self, request):
        if request.param in _UNNAMED_FIELDS:
            return _UNNAMED_FIELDS[request.param]
        return get_curve(request.param).field

    def test_mul(self, field):
        values = _operands(field, 24, 1)
        for a in values:
            for b in values[:8] + [a]:
                assert field.mul(a, b) == gf_mul_shift(a, b, field.poly)

    def test_square(self, field):
        for a in _operands(field, 60, 2):
            assert field.square(a) == gf_mul_shift(a, a, field.poly)

    def test_inv(self, field):
        for a in _operands(field, 30, 3)[1:]:
            b = field.inv(a)
            assert 0 <= b < 1 << field.m
            assert b == gf_inv_euclid(a, field.poly)

    def test_field_polynomials_are_irreducible(self, field):
        assert is_irreducible(field.poly)

    def test_sqrt(self, field):
        for a in _operands(field, 30, 4):
            assert gf_mul_shift(field.sqrt(a), field.sqrt(a), field.poly) == a

    def test_trace_and_half_trace(self, field):
        # the half-trace tables exist for odd m only; the trace mask comes with them
        if field.m % 2 == 0:
            with pytest.raises(ValueError, match="odd extension degree"):
                field.half_trace(1)
            return
        for a in _operands(field, 12, 5):
            power = trace = a
            for _ in range(field.m - 1):
                power = gf_mul_shift(power, power, field.poly)
                trace ^= power
            assert field.trace(a) == trace
            z = field.half_trace(a)
            assert gf_mul_shift(z, z, field.poly) ^ z == a ^ trace


def test_linear_maps_exhaustive_gf32():
    gf32 = BinaryField(5, 0b100101)
    for a in range(32):
        power = trace = a
        for _ in range(4):
            power = gf_mul_naive(power, power, gf32.poly)
            trace ^= power
        assert gf32.trace(a) == trace
        assert gf_mul_naive(gf32.sqrt(a), gf32.sqrt(a), gf32.poly) == a
        z = gf32.half_trace(a)
        assert gf_mul_naive(z, z, gf32.poly) ^ z == a ^ trace
