import pytest

from oracles import double_and_add, k_add, koblitz_points, trial_division_is_prime
from sigforge.binary_field import BinaryField
from sigforge.curves import EDWARDS, KOBLITZ, WEIERSTRASS, CurveSpec, Point

# y^2 = x^3 + 2x + 2 over F_17; the subgroup of G = (5, 1) has prime order 19
TOY_W17 = CurveSpec("toy-w17", WEIERSTRASS, 17, 2, 2, Point(5, 1), 19, 1)

# x^2 + y^2 = 1 + 7 x^2 y^2 over F_13; |E| = 20, G = (2, 9) has order 5
TOY_ED13 = CurveSpec("toy-ed13", EDWARDS, 13, 1, 7, Point(2, 9), 5, 4)

# Over the Mersenne primes 2^7 - 1 and 2^5 - 1, where the formulas' reductions
# fold, and with the coefficients that pick the other two Weierstrass doublings.
# y^2 = x^3 - 3x + 3 over F_127, a stored as p - 3; |E| = 122, with the point
# (84, 0) of order 2, and G = (1, 1) has order 61
TOY_W127 = CurveSpec("toy-w127", WEIERSTRASS, 127, 124, 3, Point(1, 1), 61, 2)

# y^2 = x^3 + 5 over F_31; |E| = 39, G = (4, 10) has order 13
TOY_W31A0 = CurveSpec("toy-w31a0", WEIERSTRASS, 31, 0, 5, Point(4, 10), 13, 3)

# -3x^2 + y^2 = 1 - 8 x^2 y^2 over F_127, a and d stored as p - 3 and p - 8: -3 is
# a square and -8 is not, so the law is complete; |E| = 124, G = (1, 84) has order 31
TOY_ED127 = CurveSpec("toy-ed127", EDWARDS, 127, 124, 119, Point(1, 84), 31, 4)

# y^2 + xy = x^3 + x^2 + 8 over GF(2^4)/(x^4+x+1); |E| = 20, G = (2, 12) order 5
GF16 = BinaryField(4, 0b10011)
TOY_K16 = CurveSpec("toy-k16", KOBLITZ, GF16, 1, 8, Point(2, 12), 5, 4)

# the anomalous binary curves y^2 + xy = x^3 + ax^2 + 1 over GF(2^5)/(x^5+x^2+1),
# where tau(x, y) = (x^2, y^2) acts: a = 0 has 44 points (cyclic, so with
# points of order 2 and 4) and a = 1 has 22; G generates the order-11 subgroup
GF32 = BinaryField(5, 0b100101)
TOY_K32A0 = CurveSpec("toy-k32a0", KOBLITZ, GF32, 0, 1, Point(2, 29), 11, 4)
TOY_K32A1 = CurveSpec("toy-k32a1", KOBLITZ, GF32, 1, 1, Point(8, 23), 11, 2)


def find_cofactor_2_toy(field):
    """The first curve y^2 + xy = x^3 + ax^2 + b over field, a and b outside
    {0, 1}, with 2n points for an odd prime n, by brute-force point counting;
    G is its first point of order n."""
    m, poly = field.m, field.poly
    for a in range(2, field.size):
        for b in range(2, field.size):
            points = koblitz_points(m, poly, a, b)
            n, odd = divmod(len(points) + 1, 2)
            if odd or n % 2 == 0 or not trial_division_is_prime(n):
                continue
            add = lambda P, Q: k_add(P, Q, m, poly, a)
            g = next(P for P in points if double_and_add(n, P, add, None) is None)
            return CurveSpec(f"toy-k{field.size}h2", KOBLITZ, field, a, b, Point(*g), n, 2)
    raise ValueError(f"no cofactor-2 curve over GF(2^{m})")


# cofactor 2 and not anomalous, so point halving replaces doubling
TOY_K32H2 = find_cofactor_2_toy(GF32)


@pytest.fixture
def toy_w17():
    return TOY_W17


@pytest.fixture
def toy_ed13():
    return TOY_ED13


@pytest.fixture
def toy_k16():
    return TOY_K16
