import dataclasses
import functools
import hashlib
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from sigforge import Cryptosystem, curves, numeric
from sigforge.binary_field import BinaryField
from sigforge.curves import (
    EDWARDS,
    KOBLITZ,
    WEIERSTRASS,
    CurveSpec,
    Point,
    is_neutral,
    is_on_curve,
    mul_add,
    negate,
    neutral,
    point_add,
    scalar_mul,
    validate_curve,
)
from sigforge.keystore import render_key, render_signature
from sigforge.numeric import is_probable_prime
from sigforge.registry import curve_names, get_curve

from conftest import (
    GF16,
    TOY_ED13,
    TOY_ED127,
    TOY_K16,
    TOY_K32A0,
    TOY_K32A1,
    TOY_K32H2,
    TOY_W17,
    TOY_W31A0,
    TOY_W127,
)
from oracles import (
    builtin_mod_inv,
    cyclic_table,
    double_and_add,
    ed_add,
    edwards_points,
    gf_mul_shift,
    k_add,
    koblitz_points,
    sqrt_mod_prime,
    w_add,
    weierstrass_points,
)


def _as_tuple(P):
    return None if P is None else (P.x, P.y)


def _from_tuple(t):
    return None if t is None else Point(*t)


# oracle-side view of each toy curve: (all points incl. neutral, oracle add)
def _oracle_universe(curve):
    assert curve in TOYS
    if curve.form == WEIERSTRASS:
        p, a = curve.field, curve.a
        return [None] + weierstrass_points(p, a, curve.b), lambda P, Q: w_add(P, Q, p, a)
    if curve.form == EDWARDS:
        p, a, d = curve.field, curve.a, curve.d
        return edwards_points(p, a, d), lambda P, Q: ed_add(P, Q, p, a, d)
    f = curve.field
    pts = koblitz_points(f.m, f.poly, curve.a, curve.b)
    return [None] + pts, lambda P, Q: k_add(P, Q, f.m, f.poly, curve.a)


TOYS = (
    TOY_W17,
    TOY_ED13,
    TOY_K16,
    TOY_K32A0,
    TOY_K32A1,
    TOY_K32H2,
    TOY_W127,
    TOY_W31A0,
    TOY_ED127,
)
# the toys over 2^7 - 1 have over 100 points, so the O(N^3) associativity check
# leaves them out; their every-pair check against the oracle already equates
# their law with the oracle's, which is associative
SMALL_TOYS = tuple(c for c in TOYS if c.field_size < 100)
ANOMALOUS_TOYS = (TOY_K32A0, TOY_K32A1)
HALVING_CURVES = ("sect113r1", "b163", "b233")


def _mu(curve):
    """The trace of the Frobenius map tau on an anomalous binary curve: (-1)^(1-a)."""
    return 1 if curve.a == 1 else -1


def _toy_or_registry_curve(name):
    return {c.name: c for c in TOYS}.get(name) or get_curve(name)


class TestIsOnCurve:
    def test_neutral_is_member(self):
        assert is_on_curve(None, TOY_W17)
        assert is_on_curve(None, TOY_K16)
        assert is_on_curve(Point(0, 1), TOY_ED13)

    def test_direct_substitution_examples(self):
        assert is_on_curve(Point(5, 1), TOY_W17)
        assert not is_on_curve(Point(5, 2), TOY_W17)

    @pytest.mark.parametrize("curve", TOYS, ids=lambda c: c.name)
    def test_matches_enumeration(self, curve):
        universe, _ = _oracle_universe(curve)
        affine = {t for t in universe if t is not None}
        size = curve.field_size
        for x in range(size):
            for y in range(size):
                assert is_on_curve(Point(x, y), curve) == ((x, y) in affine)

    def test_out_of_range_coordinates_rejected(self):
        assert not is_on_curve(Point(5, 1 + 17), TOY_W17)
        assert not is_on_curve(Point(0, 1 + 13), TOY_ED13)
        assert not is_on_curve(Point(2, 12 + 16), TOY_K16)


class TestPointAddAgainstOracle:
    @pytest.mark.parametrize("curve", TOYS, ids=lambda c: c.name)
    def test_every_pair_matches_brute_force_table(self, curve):
        universe, oracle_add = _oracle_universe(curve)
        for P in universe:
            for Q in universe:
                got = point_add(_from_tuple(P), _from_tuple(Q), curve)
                assert _as_tuple(got) == oracle_add(P, Q), (P, Q)

    def test_known_doubling(self):
        assert point_add(Point(5, 1), Point(5, 1), TOY_W17) == Point(6, 3)

    @pytest.mark.parametrize("curve", TOYS, ids=lambda c: c.name)
    def test_identity_law(self, curve):
        universe, _ = _oracle_universe(curve)
        e = neutral(curve)
        for P in universe:
            P = _from_tuple(P)
            assert point_add(P, e, curve) == (P if P is not None else e)
            assert point_add(e, P, curve) == (P if P is not None else e)

    @pytest.mark.parametrize("curve", TOYS, ids=lambda c: c.name)
    def test_inverse_law(self, curve):
        universe, _ = _oracle_universe(curve)
        for P in universe:
            P = _from_tuple(P)
            if P is None:
                continue
            assert is_neutral(point_add(P, negate(P, curve), curve), curve)

    def test_off_curve_input_rejected(self):
        with pytest.raises(ValueError):
            point_add(Point(5, 2), Point(5, 1), TOY_W17)
        with pytest.raises(ValueError):
            negate(Point(5, 2), TOY_W17)
        with pytest.raises(ValueError):
            scalar_mul(2, Point(5, 2), TOY_W17)


class TestGroupAxioms:
    @pytest.mark.parametrize("curve", TOYS, ids=lambda c: c.name)
    def test_closure_and_commutativity(self, curve):
        universe, _ = _oracle_universe(curve)
        pts = [_from_tuple(t) for t in universe]
        for P in pts:
            for Q in pts:
                s1 = point_add(P, Q, curve)
                assert is_on_curve(s1, curve)
                assert s1 == point_add(Q, P, curve)

    @pytest.mark.parametrize("curve", SMALL_TOYS, ids=lambda c: c.name)
    def test_associativity_exhaustive(self, curve):
        universe, _ = _oracle_universe(curve)
        pts = [_from_tuple(t) for t in universe]
        for P in pts:
            for Q in pts:
                pq = point_add(P, Q, curve)
                for R in pts:
                    assert point_add(pq, R, curve) == point_add(
                        P, point_add(Q, R, curve), curve
                    )


class TestNegate:
    def test_neutral_cases(self):
        assert negate(None, TOY_W17) is None
        assert negate(Point(0, 1), TOY_ED13) == Point(0, 1)

    def test_weierstrass_flips_y(self):
        assert negate(Point(5, 1), TOY_W17) == Point(5, 16)

    def test_koblitz_adds_x(self):
        P = Point(2, 12)
        assert negate(P, TOY_K16) == Point(2, 2 ^ 12)

    def test_edwards_flips_x(self):
        assert negate(Point(2, 9), TOY_ED13) == Point(11, 9)


def _comb_doublings(name):
    """(name, table doublings, product doublings) of G's comb on a registry curve
    that doubles: the teeth lie e = ceil(bits(n) / COMB_ROWS) steps apart on one
    chain, and a product takes e steps (p256: 240 and 16)."""
    e = -(-get_curve(name).n.bit_length() // numeric.COMB_ROWS)
    return name, (numeric.COMB_ROWS - 1) * e, e


class TestScalarMul:
    @pytest.mark.parametrize("curve", TOYS, ids=lambda c: c.name)
    def test_matches_repeated_addition(self, curve):
        universe, oracle_add = _oracle_universe(curve)
        e = None if curve.form != EDWARDS else (0, 1)
        table = cyclic_table(oracle_add, _as_tuple(curve.g), e)
        assert len(table) == curve.n
        for k in range(3 * curve.n):
            assert _as_tuple(scalar_mul(k, curve.g, curve)) == table[k % curve.n]

    def test_zero_and_one(self):
        assert scalar_mul(0, Point(5, 1), TOY_W17) is None
        assert scalar_mul(1, Point(5, 1), TOY_W17) == Point(5, 1)

    def test_order_annihilates(self):
        assert scalar_mul(19, TOY_W17.g, TOY_W17) is None
        assert scalar_mul(5, TOY_ED13.g, TOY_ED13) == Point(0, 1)
        assert scalar_mul(5, TOY_K16.g, TOY_K16) is None

    @pytest.mark.parametrize("curve", TOYS, ids=lambda c: c.name)
    def test_distributes_over_scalar_addition(self, curve):
        for a in range(2 * curve.n):
            for b in range(curve.n):
                lhs = scalar_mul(a + b, curve.g, curve)
                rhs = point_add(
                    scalar_mul(a, curve.g, curve), scalar_mul(b, curve.g, curve), curve
                )
                assert lhs == rhs

    def test_reduction_modulo_order_on_registry_curve(self):
        curve = get_curve("secp192k1")
        for k in (1, 7, 12345, curve.n - 1):
            assert scalar_mul(k, curve.g, curve) == scalar_mul(k + curve.n, curve.g, curve)

    def test_one_comb_table_per_curve(self):
        # EdDSA verify multiplies G by its unreduced s, about twice the bits
        # of n; read mod n, it shares the comb of keygen and signing
        curves._comb_table.cache_clear()
        for name in ("p256", "b163"):
            system = Cryptosystem("eddsa", curve=name, seed=1)
            assert system.verify(b"m", system.sign(b"m"))
        assert curves._comb_table.cache_info().currsize == 2

    @pytest.mark.parametrize(
        "name, table_doublings, product_doublings",
        [_comb_doublings(name) for name in ("p256", "p521", "ed448")]
        + [("sect113r1", 0, 0), ("b233", 0, 0), ("toy-k32h2", 0, 0)],
    )
    def test_g_product_takes_one_step_per_column(
        self, name, table_doublings, product_doublings, monkeypatch
    ):
        # the comb's tables read e = ceil(bits(n) / COMB_ROWS) columns, one
        # step each, and the teeth lie e steps apart; where halving is the
        # step, the teeth are built by halving G, so nothing doubles at all
        curve = _toy_or_registry_curve(name)
        c = curve._law
        doublings = []

        def counted_double(P, curve, double=c.double):
            doublings.append(P)
            return double(P, curve)

        monkeypatch.setattr(c, "double", counted_double)
        curves._comb_table.cache_clear()
        curves._comb_table(curve)
        assert len(doublings) == table_doublings
        doublings.clear()
        assert is_on_curve(scalar_mul(curve.n - 2, curve.g, curve), curve)
        assert len(doublings) == product_doublings

    @pytest.mark.parametrize(
        "name, sampled", [(c.name, False) for c in TOYS if not curves._is_anomalous(c)]
        + [("p256", True), ("ed448", True), ("sect113r1", True)],
    )
    def test_comb_tables_against_affine_oracle(self, name, sampled):
        # entry a of table v is the sum of the teeth COMB_TABLES * j + v over
        # the bits j of a, where tooth i is 2^(i*e) * G, or G halved
        # (COMB_ROWS - 1 - i) * e times where halving is the step; outside
        # GF(2^m) each entry has Z = 1 from one shared inversion, except the
        # point at infinity, which keeps Z = 0
        curve = _toy_or_registry_curve(name)
        c = curve._law
        add, e0 = _registry_oracle(curve)
        e, tables = curves._comb_table(curve)
        size, rows = 1 << numeric.COMB_TEETH, numeric.COMB_ROWS
        assert len(tables) == numeric.COMB_TABLES and all(len(table) == size for table in tables)
        halved = pow(pow(2, -1, curve.n), (rows - 1) * e, curve.n) if curves._halves(curve) else 1
        teeth = [
            double_and_add((halved << (i * e)) % curve.n, tuple(curve.g), add, e0) for i in range(rows)
        ]
        entries = random.Random(name).sample(range(size), 5) if sampled else range(size)
        for v, table in enumerate(tables):
            for a in entries:
                want = e0
                for j in range(numeric.COMB_TEETH):
                    if a >> j & 1:
                        want = add(want, teeth[numeric.COMB_TABLES * j + v])
                assert _as_tuple(c.to_affine(table[a], curve)) == want, (v, a)
                if curve.form != KOBLITZ:
                    assert table[a][2] == (0 if want is None else 1), (v, a)

    def test_some_toy_comb_entry_cancels_in_every_form(self):
        # a comb entry past entry 0 whose teeth sum to the neutral element
        # takes the table additions through their doubling and infinity
        # cases; for each form some toy's tables hold one, so the oracle test
        # above, which reads every toy entry, covers those cases
        cancelling = set()
        for curve in TOYS:
            if not curves._is_anomalous(curve):
                c = curve._law
                _, tables = curves._comb_table(curve)
                if any(is_neutral(c.to_affine(P, curve), curve) for table in tables for P in table[1:]):
                    cancelling.add(curve.form)
        assert cancelling == set(curves.FORMS)

    @pytest.mark.parametrize("name", ("p256", "ed25519", "k163", "b233", "toy-k32h2"))
    def test_mul_add_takes_one_chain(self, name, monkeypatch):
        # verify's two products share one chain of the curve's step: past the
        # steps that build Q's table, mul_add takes no more of them than the
        # longer of its two products alone, where two chains took their sum
        curve = _toy_or_registry_curve(name)
        c = curve._law
        if curves._is_anomalous(curve):
            owner, attribute = curves, "_frobenius"
        elif curves._halves(curve):
            owner, attribute = curves, "_halve"
        else:
            owner, attribute = c, "double"
        steps, in_tables = [], []

        def counted_step(P, curve, step=getattr(owner, attribute)):
            steps.append(P)
            return step(P, curve)

        def counted_build(*args, build):
            before = len(steps)
            table = build(*args)
            in_tables.append(len(steps) - before)
            return table

        def chain_steps(run):
            steps.clear()
            in_tables.clear()
            run()
            return len(steps) - sum(in_tables)

        Q = scalar_mul(3, curve.g, curve)
        scalar_mul(1, curve.g, curve)  # G's tables are built and cached
        monkeypatch.setattr(owner, attribute, counted_step)
        for builder in ("_wnaf_table", "_tnaf_table"):
            build = functools.partial(counted_build, build=getattr(curves, builder))
            monkeypatch.setattr(curves, builder, build)
        rng = random.Random(name)
        for _ in range(6):
            u1, u2 = rng.randrange(1, curve.n), rng.randrange(1, curve.n)
            g_alone = chain_steps(lambda: scalar_mul(u1, curve.g, curve))
            q_alone = chain_steps(lambda: scalar_mul(u2, Q, curve))
            both = chain_steps(lambda: mul_add(u1, curve.g, u2, Q, curve))
            assert g_alone > 0 and q_alone > 0 and in_tables
            assert both <= max(g_alone, q_alone), (u1, u2)

    @pytest.mark.parametrize("name", ("toy-w17", "toy-ed13", "p256", "ed448"))
    def test_every_addend_is_normalised(self, name, monkeypatch):
        # one addition formula per form, the mixed one: whatever runs, the
        # second operand of an addition has Z = 1, or Z = 0 at infinity
        curve = _toy_or_registry_curve(name)
        c = curve._law
        addends = []

        def recorded_add(P, Q, curve, add=c.add):
            addends.append(Q)
            return add(P, Q, curve)

        monkeypatch.setattr(c, "add", recorded_add)
        curves._comb_table.cache_clear()
        curves._comb_table(curve)
        P = point_add(curve.g, curve.g, curve)
        for k in (1, 2, 3, curve.n - 1, curve.n + 5):
            scalar_mul(k, curve.g, curve)
            scalar_mul(k, P, curve)
            mul_add(k, curve.g, k + 1, P, curve)
            mul_add(k, P, k + 2, negate(P, curve), curve)
            point_add(P, scalar_mul(k, curve.g, curve), curve)
        assert len(addends) > 200
        assert {Q[2] for Q in addends} <= {0, 1}

    def test_negative_scalar_rejected(self):
        with pytest.raises(ValueError):
            scalar_mul(-1, TOY_W17.g, TOY_W17)


def _registry_oracle(curve):
    """(add, neutral) of an independent affine group law with the curve's parameters."""
    if curve.form == WEIERSTRASS:
        return (lambda P, Q: w_add(P, Q, curve.field, curve.a, builtin_mod_inv)), None
    if curve.form == EDWARDS:
        return (lambda P, Q: ed_add(P, Q, curve.field, curve.a, curve.d, builtin_mod_inv)), (0, 1)
    f = curve.field
    return (lambda P, Q: k_add(P, Q, f.m, f.poly, curve.a, fast=True)), None


class TestScalarMulAgainstAffineOracle:
    """The comb (multiples of G), wNAF (any other point) and tau-adic NAF
    (k163, k233) paths, and the verify sums, against plain affine
    double-and-add on every registry curve.  The comb reads k mod n, which is
    exact on these validated curves: one table of G per curve serves scalars
    of n and above too.  No other path reduces by n."""

    @staticmethod
    def make_case(name):
        curve = get_curve(name)
        add, e = _registry_oracle(curve)
        rng = random.Random(name)
        n, hn = curve.n, curve.h * curve.n
        # an EdDSA s reaches n * p, or n * 2^m on a binary field; from h*n on,
        # a scalar wraps the whole group, not only the order-n subgroup
        wide = rng.randrange(n, n * curve.field_size)
        scalars = {0, 1, 2, n - 1, n, n + 1, hn, hn + 1, rng.randrange(n), wide}
        return curve, add, e, rng, tuple(sorted(scalars))

    @pytest.fixture(params=curve_names())
    def case(self, request):
        return self.make_case(request.param)

    @staticmethod
    def oracle_multiples(ks, P, add, e):
        """{k: k*P}: one double-and-add per scalar, and k+1 from k by one addition."""
        out = {}
        for k in sorted(ks):
            out[k] = add(out[k - 1], P) if k - 1 in out else double_and_add(k, P, add, e)
        return out

    @staticmethod
    def as_tuple(P):
        return None if P is None else tuple(P)

    def test_fixed_base(self, case):
        curve, add, e, _, scalars = case
        want = self.oracle_multiples(scalars, tuple(curve.g), add, e)
        for k in scalars:
            assert self.as_tuple(scalar_mul(k, curve.g, curve)) == want[k], k

    def test_variable_base(self, case):
        curve, add, e, rng, scalars = case
        Q = double_and_add(rng.randrange(2, curve.n), tuple(curve.g), add, e)
        want = self.oracle_multiples(scalars, Q, add, e)
        for k in scalars:
            assert self.as_tuple(scalar_mul(k, Point(*Q), curve)) == want[k], k

    def test_verify_sums(self, case):
        curve, add, e, rng, _ = case
        n, G = curve.n, tuple(curve.g)
        j = rng.randrange(2, n)
        Q = double_and_add(j, G, add, e)
        # ECDSA u1*G + u2*Q, including the sums that cancel and that double
        u2 = rng.randrange(1, n)
        u2Q = double_and_add(u2, Q, add, e)
        for u1 in (rng.randrange(1, n), (n - u2 * j) % n, u2 * j % n):
            u1G = double_and_add(u1, G, add, e)
            want = add(u1G, u2Q)
            assert self.as_tuple(mul_add(u1, curve.g, u2, Point(*Q), curve)) == want, u1
            # G as the second argument, and as both
            assert self.as_tuple(mul_add(u2, Point(*Q), u1, curve.g, curve)) == want, u1
            assert self.as_tuple(mul_add(u1, curve.g, u1, curve.g, curve)) == add(u1G, u1G), u1
        # a zero scalar on either side leaves the other product alone
        assert self.as_tuple(mul_add(0, curve.g, u2, Point(*Q), curve)) == u2Q
        assert self.as_tuple(mul_add(u1, curve.g, 0, Point(*Q), curve)) == u1G
        assert self.as_tuple(mul_add(0, curve.g, 0, Point(*Q), curve)) == e
        # EdDSA R + h*Q with a challenge h below the challenge modulus
        r = rng.randrange(1, n)
        R = double_and_add(r, G, add, e)
        h = rng.randrange(curve.field_size)
        hQ = double_and_add(h, Q, add, e)
        assert self.as_tuple(mul_add(1, Point(*R), h, Point(*Q), curve)) == add(R, hQ)
        # two points neither of which is G, and a zero scalar beside one of them
        assert self.as_tuple(mul_add(u2, Point(*Q), j, Point(*R), curve)) == add(
            u2Q, double_and_add(r * j % n, G, add, e)
        )
        assert self.as_tuple(mul_add(h, Point(*Q), 0, Point(*R), curve)) == hQ

    @pytest.mark.parametrize("name", ("k163", "k233") + HALVING_CURVES)
    def test_point_with_two_torsion_component(self, name):
        # (0, sqrt(b)) has order 2, so G + (0, sqrt(b)) lies outside the
        # order-n subgroup: only a reduction exact on the whole group, or
        # halving's correction by (0, sqrt(b)), keeps its multiples right
        curve, add, e, _, scalars = self.make_case(name)
        f = curve.field
        root_b = curve.b
        for _ in range(f.m - 1):
            root_b = gf_mul_shift(root_b, root_b, f.poly)
        T = (0, root_b)
        assert add(T, T) is None
        Q = add(tuple(curve.g), T)
        want = self.oracle_multiples(scalars, Q, add, e)
        # a second point outside the subgroup: with both scalars odd, T + T cancels
        P = add(double_and_add(2, tuple(curve.g), add, e), T)
        odd = self.oracle_multiples({2 * curve.n - 1, 3}, P, add, e)
        for k in scalars:
            assert self.as_tuple(scalar_mul(k, Point(*Q), curve)) == want[k], k
            assert self.as_tuple(mul_add(k, Point(*Q), 1, curve.g, curve)) == add(
                want[k], tuple(curve.g)
            ), k
            for k2, k2P in odd.items():
                got = mul_add(k, Point(*Q), k2, Point(*P), curve)
                assert self.as_tuple(got) == add(want[k], k2P), (k, k2)

    def test_fast_oracle_laws_match_toy_oracles(self):
        # the registry oracle's inverses and products agree with brute force
        for curve in TOYS:
            universe, toy_add = _oracle_universe(curve)
            add, _ = _registry_oracle(curve)
            for P in universe:
                for Q in universe:
                    assert add(P, Q) == toy_add(P, Q)


class TestTauAdicNaf:
    """The Frobenius path of the anomalous binary curves (koblitz form, b = 1,
    a in {0, 1}): its selection, its constants, and exhaustive toy checks."""

    def test_selected_by_curve_parameters(self):
        selected = [name for name in curve_names() if curves._is_anomalous(get_curve(name))]
        assert sorted(selected) == ["k163", "k233"]
        assert not curves._is_anomalous(TOY_K16)  # koblitz form, but b = 8
        assert all(curves._is_anomalous(curve) for curve in ANOMALOUS_TOYS)

    @pytest.mark.parametrize(
        "name", ("k163", "b163", "toy-k32a1", "toy-k16", "sect113r1", "b233", "toy-k32h2", "p256")
    )
    def test_one_path_per_curve(self, name, monkeypatch):
        # the tau-adic NAF replaces both the comb and the NAF, and runs nowhere
        # else; on the cofactor-2 binary curves halving replaces doubling in
        # every product, so a product of G doubles nothing and one of any other
        # point doubles once, for its table's 2P
        curve = _toy_or_registry_curve(name)
        c = curve._law
        doublings = []

        def unused(*args):
            raise AssertionError("a second scalar multiplication path ran")

        def counted_double(P, curve, double=c.double):
            doublings.append(P)
            return double(P, curve)

        if curves._is_anomalous(curve):
            monkeypatch.setattr(curves, "_comb_term", unused)
            monkeypatch.setattr(curves, "_naf_term", unused)
        else:
            monkeypatch.setattr(curves, "_tnaf_term", unused)
        for P in (curve.g, point_add(curve.g, curve.g, curve)):
            assert is_on_curve(scalar_mul(curve.n + 3, P, curve), curve)
        monkeypatch.setattr(c, "double", counted_double)
        for P, table_doublings in ((curve.g, 0), (point_add(curve.g, curve.g, curve), 1)):
            doublings.clear()
            scalar_mul(curve.n + 3, P, curve)
            if curves._halves(curve):
                assert len(doublings) == table_doublings, P

    @staticmethod
    def zt_mul(x, y, mu):
        """Product in Z[tau], tau^2 = mu*tau - 2, of pairs (r0, r1) = r0 + r1*tau."""
        return (x[0] * y[0] - 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0] + mu * x[1] * y[1])

    @pytest.mark.parametrize("mu", (1, -1))
    @pytest.mark.parametrize("w", (2, 3, 4, 5, 6))
    def test_digits_expand_every_small_element(self, w, mu):
        _, alphas = curves._tnaf_constants(w, mu)
        tau_w = (1, 0)
        for _ in range(w):
            tau_w = self.zt_mul(tau_w, (0, 1), mu)
        for j, (a0, a1) in enumerate(alphas):
            # alpha_u = u (mod tau^w): u - alpha_u is a multiple of tau^w in Z[tau]
            d0, d1 = 2 * j + 1 - a0, -a1
            norm = tau_w[0] ** 2 + mu * tau_w[0] * tau_w[1] + 2 * tau_w[1] ** 2
            conj = (tau_w[0] + mu * tau_w[1], -tau_w[1])
            q = self.zt_mul((d0, d1), conj, mu)
            assert q[0] % norm == 0 and q[1] % norm == 0, (2 * j + 1, a0, a1)
        for r0 in range(-40, 41):
            for r1 in range(-40, 41):
                digits = curves._tnaf(r0, r1, w, mu)
                acc = (0, 0)
                for u in reversed(digits):
                    acc = self.zt_mul(acc, (0, 1), mu)
                    if u:
                        a0, a1 = alphas[abs(u) >> 1]
                        acc = (acc[0] + a0, acc[1] + a1) if u > 0 else (acc[0] - a0, acc[1] - a1)
                assert acc == (r0, r1)
                nonzero = [i for i, u in enumerate(digits) if u]
                assert all(j - i >= w for i, j in zip(nonzero, nonzero[1:]))
                assert all(u % 2 and abs(u) < 1 << (w - 1) for u in digits if u)

    @pytest.mark.parametrize("name", ("k163", "k233", "toy-k32a0", "toy-k32a1"))
    def test_frobenius_modulus_norm_is_the_group_order(self, name):
        # derived from m and mu alone, it must still have norm |E| = h * n
        curve = _toy_or_registry_curve(name)
        mu = _mu(curve)
        d0, d1 = curves._frobenius_modulus(curve.field.m, mu)
        assert d0 * d0 + mu * d0 * d1 + 2 * d1 * d1 == curve.h * curve.n

    @pytest.mark.parametrize("name", ("k163", "k233", "toy-k32a0", "toy-k32a1"))
    def test_frobenius_acts_on_g_as_a_root_of_its_characteristic_polynomial(self, name):
        curve = _toy_or_registry_curve(name)
        f, n, mu = curve.field, curve.n, _mu(curve)
        add, e = _registry_oracle(curve)
        gx, gy = curve.g
        tau_g = (gf_mul_shift(gx, gx, f.poly), gf_mul_shift(gy, gy, f.poly))
        # lambda^2 - mu*lambda + 2 = 0 (mod n): lambda = (mu +- sqrt(mu^2 - 8)) / 2
        root = sqrt_mod_prime(mu * mu - 8, n)
        assert root is not None
        lambdas = {(mu + s) * pow(2, -1, n) % n for s in (root, n - root)}
        assert all((lam * lam - mu * lam + 2) % n == 0 for lam in lambdas)
        matches = [lam for lam in lambdas if double_and_add(lam, tuple(curve.g), add, e) == tau_g]
        assert len(matches) == 1

    @pytest.mark.parametrize("curve", ANOMALOUS_TOYS, ids=lambda c: c.name)
    def test_every_point_and_scalar_against_double_and_add(self, curve):
        universe, toy_add = _oracle_universe(curve)
        add = functools.lru_cache(maxsize=None)(toy_add)
        top = 2 * curve.h * curve.n
        g = tuple(curve.g)
        g_multiples = [double_and_add(j, g, add, None) for j in range(top + 1)]
        assert g in universe
        for P in universe:
            for k in range(top + 1):
                want = double_and_add(k, P, add, None)
                assert _as_tuple(scalar_mul(k, _from_tuple(P), curve)) == want, (P, k)
                # G's cached table beside the per-call table of P
                got = mul_add(k, _from_tuple(P), top - k, curve.g, curve)
                assert _as_tuple(got) == add(want, g_multiples[top - k]), (P, k)


class TestPointHalving:
    """Halve-and-add on the cofactor-2 binary curves (koblitz form, h = 2, odd
    n and m, not anomalous): its selection and an exhaustive toy check."""

    def test_selected_by_curve_parameters(self):
        selected = [name for name in curve_names() if curves._halves(get_curve(name))]
        assert sorted(selected) == sorted(HALVING_CURVES)
        assert curves._halves(TOY_K32H2)
        assert not curves._halves(TOY_K16)  # h = 4
        assert not any(curves._halves(curve) for curve in ANOMALOUS_TOYS)

    def test_every_point_and_scalar_against_double_and_add(self):
        # the n points of 2E and the n outside it, among them (0, sqrt(b)),
        # times every scalar up to 4n: k * 2^(t-1) mod n and the parity of k
        # both wrap
        curve = TOY_K32H2
        universe, toy_add = _oracle_universe(curve)
        add = functools.lru_cache(maxsize=None)(toy_add)
        assert len(universe) == 2 * curve.n
        assert sum(double_and_add(curve.n, P, add, None) is None for P in universe) == curve.n
        top = 2 * curve.h * curve.n
        g = tuple(curve.g)
        g_multiples = [double_and_add(j, g, add, None) for j in range(top + 1)]
        for P in universe:
            for k in range(top + 1):
                want = double_and_add(k, P, add, None)
                assert _as_tuple(scalar_mul(k, _from_tuple(P), curve)) == want, (P, k)
                got = mul_add(k, _from_tuple(P), top - k, curve.g, curve)
                assert _as_tuple(got) == add(want, g_multiples[top - k]), (P, k)


MERSENNE_PRIMES = (31, 127, (1 << 521) - 1)
FOLD = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestPrimeFieldConstants:
    """What a prime curve's group law reads, derived once per curve: the modulus
    its formulas reduce by, which folds where p = 2^k - 1, a and d centred, and
    the Weierstrass doubling that the centred a picks."""

    @pytest.mark.parametrize("p", MERSENNE_PRIMES)
    def test_fold_at_the_edges(self, p):
        m = curves._reduction_modulus(p)
        assert type(m) is not int and m == p and hash(m) == hash(p) and repr(m) == repr(p)
        for x in (0, 1, -1, p, -p, p + 1, -p - 1, p - 1, 1 - p, 2 * p, p * p, -p * p):
            assert x % m == x % p and type(x % m) is int, x

    @FOLD
    @given(st.data())
    def test_fold_matches_plain_remainder(self, data):
        # the formulas' largest operands: the general doubling's a * Z^4 with a
        # centred stays below p^3 in size, and differences such as M^2 - 2S or
        # M(S - X3) - 8Y^4 go negative
        p = data.draw(st.sampled_from(MERSENNE_PRIMES))
        m = curves._reduction_modulus(p)
        x = data.draw(st.integers(-(p**3), p**3))
        assert x % m == x % p
        M, S, X3, YY = (data.draw(st.integers(0, p - 1)) for _ in range(4))
        for y in (M * M - 2 * S, M * (S - X3) - 8 * YY * YY):
            assert y % m == y % p

    @pytest.mark.parametrize("p", (13, 17, 2**255 - 19, get_curve("p256").field, 2**448 - 2**224 - 1))
    def test_other_primes_keep_the_native_remainder(self, p):
        assert curves._reduction_modulus(p) is p

    @pytest.mark.parametrize("name", ("p521", "e521"))
    def test_folding_curve_equals_plain_int_curve(self, name):
        curve = get_curve(name)
        m = curve._p
        assert type(m) is not int and type(curve.field) is int
        folded = dataclasses.replace(curve, field=m)
        assert folded == curve and hash(folded) == hash(curve) and repr(folded) == repr(curve)
        assert f"field={(1 << 521) - 1}," in repr(curve)
        assert pickle.loads(pickle.dumps(curve)) == curve
        assert pickle.loads(pickle.dumps(m)) == m

    @pytest.mark.parametrize(
        "alg, name, seed, private, public, signature",
        (
            (
                "ecdsa", "p521", 2301,
                "2dd28b124fd10e8ff2424a5d3bc1b9ff88b90276103ed6da1fa763d0bab191e2",
                "e21c157f30634a6160dfcc3dc6ceb5701b085c49a3d0693371c3ea82e13850e0",
                "9b66adc4d84452351855babe8668e22d8b2aec025e81089cb7a74abf5515b851",
            ),
            (
                "eddsa", "e521", 2302,
                "06a98a500df5e1648d6b604ec3a3407c2f68fad2e4cc0706537e9f56bc3660bb",
                "cf8b7718ba94db3fbba86fbff4190b807847d25415061867ad67b52397d8d123",
                "24667634b3fdbcc7639341e2d646ab5c270521d68ff259b240e28a10344e6f44",
            ),
        ),
    )
    def test_seeded_files_on_the_folding_curves(self, alg, name, seed, private, public, signature):
        # SHA-256 of the rendered files as generic reduction wrote them
        system = Cryptosystem(alg, curve=name, seed=seed)
        texts = (
            render_key(alg, system.key),
            render_key(alg, system.key, public_only=True),
            render_signature(alg, system.sign(b"folded reduction regression message")),
        )
        assert [hashlib.sha256(t.encode()).hexdigest() for t in texts] == [private, public, signature]

    @pytest.mark.parametrize(
        "name, a, d, doubling, folds",
        (
            ("p256", -3, None, "_double_jacobian_minus3", False),
            ("p384", -3, None, "_double_jacobian_minus3", False),
            ("p521", -3, None, "_double_jacobian_minus3", True),
            ("secp256k1", 0, None, "_double_jacobian_a0", False),
            ("toy-w17", 2, None, "_double_jacobian", False),
            ("toy-w127", -3, None, "_double_jacobian_minus3", True),
            ("toy-w31a0", 0, None, "_double_jacobian_a0", True),
            ("ed25519", -1, None, "_double_extended", False),
            ("ed448", 1, -39081, "_double_extended", False),
            ("e521", 1, -376014, "_double_extended", True),
            ("toy-ed127", -3, -8, "_double_extended", True),
        ),
    )
    def test_each_curve_reads_its_own_constants(self, name, a, d, doubling, folds):
        curve = _toy_or_registry_curve(name)
        assert curve._a == a and curve._law.double.__name__ == doubling
        assert (type(curve._p) is not int) == folds and curve._p == curve.field
        if d is not None:
            assert curve._d == d
        # the form's other operations are shared, and its table is left as it was
        assert curve._law.add is curves._COORDS[curve.form].add
        assert curves._COORDS[WEIERSTRASS].double is curves._double_jacobian


class TestEdwardsDenominatorGuard:
    def test_incomplete_curve_surfaces_error(self):
        # d = 4 is a square mod 13, so the unified law has exceptional pairs
        bad = CurveSpec("bad-ed", EDWARDS, 13, 1, 4, Point(0, 1), 2, 1)
        P = Point(4, 5)
        assert is_on_curve(P, bad)
        with pytest.raises(ValueError, match="denominator"):
            point_add(P, P, bad)
        with pytest.raises(ValueError, match="denominator"):
            scalar_mul(2, P, bad)  # the doubling formula keeps the same guard


class TestValidateCurve:
    @pytest.mark.parametrize("curve", TOYS, ids=lambda c: c.name)
    def test_toys_validate(self, curve):
        validate_curve(curve)

    def test_bad_base_point_rejected(self):
        broken = CurveSpec("broken", TOY_W17.form, 17, 2, 2, Point(5, 2), 19, 1)
        with pytest.raises(ValueError, match="base point"):
            validate_curve(broken)

    def test_composite_order_rejected(self):
        broken = CurveSpec("broken", TOY_W17.form, 17, 2, 2, Point(5, 1), 18, 1)
        with pytest.raises(ValueError, match="not prime"):
            validate_curve(broken)

    @pytest.mark.parametrize("name", ("p256", "ed25519", "b163", "k163", "k233"))
    def test_wrong_order_rejected_on_registry_curve(self, name):
        # the check is (n - 1) * G = -G: the comb reads (n - 1) mod n = n - 1
        # with n the claimed order, and the tau-adic NAF reduces modulo
        # tau^m - 1, derived without n, so both compute (n - 1) * G exactly; with
        # n replaced by a smaller prime, that is not -G
        curve = get_curve(name)
        other = curve.n - 2
        while not is_probable_prime(other):
            other -= 2
        with pytest.raises(ValueError, match=r"n \* G is not the neutral element"):
            validate_curve(dataclasses.replace(curve, n=other))

    @pytest.mark.parametrize("coefficient", ("a", "b"))
    def test_koblitz_coefficients_must_be_field_elements(self, coefficient):
        # GF(2^m) arithmetic trusts its operands, so the curve's own constants
        # are checked here, once; setting bit m puts the value past the field
        broken = dataclasses.replace(
            TOY_K16, **{coefficient: getattr(TOY_K16, coefficient) | GF16.size}
        )
        with pytest.raises(ValueError, match="must be field elements"):
            validate_curve(broken)

    @pytest.mark.parametrize(
        "broken,reason",
        (
            (dataclasses.replace(TOY_W17, form="hessian"), "unknown form 'hessian'"),
            (dataclasses.replace(TOY_W17, h=0), "cofactor must be >= 1"),
            (dataclasses.replace(TOY_W17, form=KOBLITZ), "koblitz form requires a BinaryField"),
            # x^4 + x^2 + 1 = (x^2 + x + 1)^2
            (
                dataclasses.replace(TOY_K16, field=BinaryField(4, 0b10101)),
                "reduction polynomial is not irreducible",
            ),
            (dataclasses.replace(TOY_K16, b=0), "singular curve (b = 0)"),
            (dataclasses.replace(TOY_W17, field=15), "field modulus is not an odd prime"),
            (dataclasses.replace(TOY_W17, a=0, b=0), "singular curve (zero discriminant)"),
            (dataclasses.replace(TOY_ED13, a=TOY_ED13.d), "degenerate edwards parameters"),
        ),
        ids=lambda value: value if isinstance(value, str) else value.name,
    )
    def test_each_refusal_names_its_reason(self, broken, reason):
        with pytest.raises(ValueError, match=re.escape(f"curve {broken.name!r}: {reason}")):
            validate_curve(broken)

    def test_base_point_outside_the_order_n_subgroup_rejected(self):
        # (n - 1) * G is read through halving, which is exact only on 2E, the
        # points with Tr(x) = Tr(a): every base point outside it must still fail
        curve = TOY_K32H2
        f = curve.field
        universe, _ = _oracle_universe(curve)
        outside = [P for P in universe[1:] if f.trace(P[0]) != f.trace(curve.a)]
        assert len(outside) == curve.n
        for P in outside:
            with pytest.raises(ValueError, match="neutral element"):
                validate_curve(dataclasses.replace(curve, g=Point(*P)))

    def test_hasse_violation_rejected(self):
        # n = 19 with cofactor 3 puts h*n far outside the interval around 18
        broken = CurveSpec("broken", TOY_W17.form, 17, 2, 2, Point(5, 1), 19, 3)
        with pytest.raises(ValueError, match="Hasse"):
            validate_curve(broken)
