import decimal
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from sigforge import ff_signatures, numeric
from sigforge.ec_signatures import (
    EddsaSignature,
    ec_keygen,
    ecdsa_sign,
    eddsa_sign,
)
from sigforge.cryptosystem import verify_message
from sigforge.curves import EDWARDS, Point, is_neutral, is_on_curve, point_add
from sigforge.errors import KeyFileError, MissingPrivateKeyError
from sigforge.ff_signatures import (
    DsaSignature,
    RsaKey,
    dsa_keygen,
    dsa_paramgen,
    dsa_sign,
    rsa_keygen,
    rsa_sign,
)
from sigforge.keystore import (
    MAX_FIELD_DIGITS,
    export_key,
    export_signature,
    import_key,
    import_signature,
    parse_key,
    parse_signature,
    render_key,
    render_signature,
)
from sigforge.numeric import RngHandle, gen_prime, is_probable_prime, mod_inv
from sigforge.registry import get_curve


@pytest.fixture(scope="module")
def keys():
    rng = RngHandle(101)
    return {
        "rsa": rsa_keygen(512, rng),
        "dsa": dsa_keygen(dsa_paramgen(512, 160, rng), rng),
        "ecdsa": ec_keygen(get_curve("secp192k1"), rng),
        "eddsa": ec_keygen(get_curve("ed25519"), rng),
    }


class TestRenderFormat:
    def test_eddsa_public_fields(self, keys):
        text = render_key("eddsa", keys["eddsa"], public_only=True)
        lines = text.splitlines()
        assert lines[0] == "sigforge-key v1"
        assert "algorithm: eddsa" in lines
        assert "curve: ed25519" in lines
        assert "form: edwards" in lines
        assert "type: public" in lines
        assert any(line.startswith("qx: ") for line in lines)
        assert any(line.startswith("qy: ") for line in lines)

    def test_rsa_private_fields(self, keys):
        text = render_key("rsa", keys["rsa"])
        for field in ("n: ", "e: ", "d: "):
            assert any(line.startswith(field) for line in text.splitlines())

    def test_public_strips_private_fields(self, keys):
        for algorithm, prefix in (("rsa", "d:"), ("dsa", "x:"), ("ecdsa", "ka:"), ("eddsa", "ka:")):
            text = render_key(algorithm, keys[algorithm], public_only=True)
            assert not any(line.startswith(prefix) for line in text.splitlines())

    def test_trailing_newline_and_lf(self, keys):
        text = render_key("dsa", keys["dsa"])
        assert text.endswith("\n")
        assert "\r" not in text


class TestKeyRoundtrip:
    @pytest.mark.parametrize("algorithm", ("rsa", "dsa", "ecdsa", "eddsa"))
    def test_private_roundtrip(self, keys, algorithm, tmp_path):
        path = tmp_path / "key.txt"
        export_key(algorithm, keys[algorithm], path)
        assert import_key(path) == (algorithm, keys[algorithm])

    @pytest.mark.parametrize("algorithm", ("rsa", "dsa", "ecdsa", "eddsa"))
    def test_public_roundtrip(self, keys, algorithm, tmp_path):
        path = tmp_path / "key.txt"
        export_key(algorithm, keys[algorithm], path, public_only=True)
        assert import_key(path) == (algorithm, keys[algorithm].public_only())

    def test_render_parse_is_lossless_text(self, keys):
        for algorithm in ("rsa", "dsa", "ecdsa", "eddsa"):
            text = render_key(algorithm, keys[algorithm])
            algorithm2, key2 = parse_key(text)
            assert render_key(algorithm2, key2) == text

    def test_public_rsa_key_at_the_largest_modulus(self):
        # a constructed 15360-bit n: 4,624 digits, past the interpreter's
        # default int/str limit of 4,300; decimal.Decimal converts without it
        n = (1 << 15359) | RngHandle(15360).getrandbits(15359) | 1
        key = RsaKey(n=n, e=65537)
        text = render_key("rsa", key, public_only=True)
        digits = str(decimal.Decimal(n))
        assert len(digits) == 4624
        assert f"\nn: {digits}\n" in text
        assert parse_key(text) == ("rsa", key)

    def test_key_past_the_largest_modulus_is_not_written(self):
        # a 16384-bit n has 4,932 or 4,933 digits, which parse_key would refuse
        n = (1 << 16383) | RngHandle(16384).getrandbits(16383) | 1
        key = RsaKey(n=n, e=65537)
        with pytest.raises(KeyFileError, match=r"line 4: field 'n' is too long \(493[23] digits, at most 4624\)"):
            render_key("rsa", key, public_only=True)

    def test_cannot_export_private_from_public_key(self, keys, tmp_path):
        public = keys["eddsa"].public_only()
        with pytest.raises(MissingPrivateKeyError):
            export_key("eddsa", public, tmp_path / "x.txt", public_only=False)


class TestKeyValidation:
    def test_missing_header(self):
        with pytest.raises(KeyFileError, match="line 1"):
            parse_key("algorithm: rsa\n")

    def test_unknown_algorithm(self):
        with pytest.raises(KeyFileError, match="algorithm"):
            parse_key("sigforge-key v1\nalgorithm: foo\ntype: public\n")

    def test_unknown_curve(self, keys):
        text = render_key("eddsa", keys["eddsa"]).replace("ed25519", "ed25520")
        with pytest.raises(KeyFileError, match="curve"):
            parse_key(text)

    @pytest.mark.parametrize("written", ("SECP192K1", "Secp192k1", "secp192\u212a1"))
    def test_curve_name_must_be_written_as_rendered(self, keys, written):
        # the lookup folds case, and the Kelvin sign lowers to an ASCII "k"
        text = render_key("ecdsa", keys["ecdsa"]).replace("secp192k1", written)
        with pytest.raises(KeyFileError, match="curve"):
            parse_key(text)

    def test_form_curve_mismatch(self, keys):
        text = render_key("eddsa", keys["eddsa"]).replace("form: edwards", "form: koblitz")
        with pytest.raises(KeyFileError, match="form"):
            parse_key(text)

    def test_off_curve_point_rejected(self, keys):
        key = keys["ecdsa"]
        text = render_key("ecdsa", key, public_only=True)
        text = text.replace(f"qy: {key.q.y}", f"qy: {key.q.y + 1}")
        with pytest.raises(KeyFileError, match="point"):
            parse_key(text)

    def test_inconsistent_private_scalar_rejected(self, keys):
        key = keys["ecdsa"]
        text = render_key("ecdsa", key)
        text = text.replace(f"ka: {key.ka}", f"ka: {key.ka ^ 1}")
        with pytest.raises(KeyFileError, match="consistent"):
            parse_key(text)

    def test_inconsistent_rsa_private_rejected(self, keys):
        key = keys["rsa"]
        text = render_key("rsa", key)
        text = text.replace(f"d: {key.d}", f"d: {key.d + 2}")
        with pytest.raises(KeyFileError, match="consistent"):
            parse_key(text)

    @staticmethod
    def refused_after_few_mod_exps(monkeypatch, n, d):
        text = f"sigforge-key v1\nalgorithm: rsa\ntype: private\nn: {n}\ne: 65537\nd: {d}\n"
        calls = []

        def counting_mod_exp(base, exponent, modulus):
            calls.append(modulus)
            return pow(base, exponent, modulus)

        monkeypatch.setattr(ff_signatures, "mod_exp", counting_mod_exp)
        monkeypatch.setattr(numeric, "mod_exp", counting_mod_exp)
        with pytest.raises(KeyFileError, match="not a consistent RSA key"):
            parse_key(text)
        # refused after a few exponentiations, not one per factoring base
        assert 0 < len(calls) <= 3

    def test_rsa_key_on_a_prime_modulus_rejected(self, monkeypatch):
        # d inverts e modulo n - 1, so m^(e*d) = m (mod n) for every m, but n
        # is not a product of two primes
        n = gen_prime(1024, RngHandle(104))
        self.refused_after_few_mod_exps(monkeypatch, n, mod_inv(65537, n - 1))

    def test_rsa_key_on_a_prime_square_modulus_rejected(self, monkeypatch):
        # d inverts e modulo p(p - 1), the order of the cyclic group of units
        # modulo p^2: m^(e*d) = m for every unit m, and no base finds a square
        # root of 1 other than +-1
        p = gen_prime(1024, RngHandle(106))
        assert math.gcd(65537, p - 1) == 1
        self.refused_after_few_mod_exps(monkeypatch, p * p, mod_inv(65537, p * (p - 1)))

    def test_rsa_key_on_three_primes_rejected(self):
        # d inverts e modulo lcm(p-1, q-1, r-1), so m^(e*d) = m (mod n) for
        # every m; n splits, but one part is composite and its CRT value wrong
        rng = RngHandle(105)
        p, q, r = (gen_prime(192, rng) for _ in range(3))
        n = p * q * r
        d = mod_inv(65537, math.lcm(p - 1, q - 1, r - 1))
        text = f"sigforge-key v1\nalgorithm: rsa\ntype: private\nn: {n}\ne: 65537\nd: {d}\n"
        with pytest.raises(KeyFileError, match="not a consistent RSA key"):
            parse_key(text)

    @pytest.mark.parametrize(
        "text",
        (
            "sigforge-key v1\nalgorithm: rsa\ntype: public\nn: 3233\ne: 17\n",
            "sigforge-key v1\nalgorithm: rsa\ntype: private\nn: 3233\ne: 17\nd: 2753\n",
            "sigforge-key v1\nalgorithm: dsa\ntype: public\np: 23\nq: 11\ng: 4\ny: 18\n",
            "sigforge-key v1\nalgorithm: dsa\ntype: private\np: 23\nq: 11\ng: 4\ny: 18\nx: 3\n",
        ),
    )
    def test_modulus_under_512_bits_rejected(self, text):
        with pytest.raises(KeyFileError, match="too small"):
            parse_key(text)

    @pytest.mark.parametrize(
        "algorithm,public,change,match",
        (
            ("rsa", True, lambda key: {"n": key.n + 1}, "not a valid RSA modulus"),
            ("rsa", True, lambda key: {"e": 2}, "field 'e' is out of range"),
            ("rsa", False, lambda key: {"d": key.n}, "field 'd' is out of range"),
            ("dsa", True, lambda key: {"q": key.params.p}, "fields 'p', 'q' are out of range"),
            ("dsa", True, lambda key: {"g": 1}, "not a generator"),
            ("dsa", False, lambda key: {"x": key.params.q}, "field 'x' is out of range"),
            ("dsa", False, lambda key: {"x": key.x % (key.params.q - 1) + 1}, "not a consistent"),
            ("eddsa", True, lambda key: {"qx": 0, "qy": 1}, "neutral element"),
            ("ecdsa", False, lambda key: {"ka": key.curve.n}, "field 'ka' is out of range"),
        ),
        ids=(
            "rsa-even-n", "rsa-e", "rsa-d", "dsa-q", "dsa-g", "dsa-x", "dsa-x-y", "ec-neutral", "ec-ka"
        ),
    )
    def test_scheme_invariant_refused(self, keys, algorithm, public, change, match):
        lines = render_key(algorithm, keys[algorithm], public_only=public).splitlines()
        for name, value in change(keys[algorithm]).items():
            index = next(i for i, line in enumerate(lines) if line.startswith(f"{name}: "))
            lines[index] = f"{name}: {value}"
        with pytest.raises(KeyFileError, match=match):
            parse_key("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "name", ("ed25519", "ed448", "e521", "numsp384t1", "k163", "b163", "k233", "b233", "sect113r1")
    )
    def test_public_point_outside_the_order_n_subgroup_refused(self, name):
        # Q + T, with T of order 2, is a curve point of order 2n: (0, -1) on an
        # Edwards curve and (0, sqrt(b)) on a binary one; like DSA's y^q = 1,
        # n * Q = O is checked on import wherever the cofactor h is above 1
        curve = get_curve(name)
        assert curve.h > 1
        key = ec_keygen(curve, RngHandle(107))
        if curve.form == EDWARDS:
            algorithm, T = "eddsa", Point(0, curve.field - 1)
        else:
            algorithm, T = "ecdsa", Point(0, curve.field.sqrt(curve.b))
        assert is_on_curve(T, curve) and is_neutral(point_add(T, T, curve), curve)
        text = render_key(algorithm, key, public_only=True)
        assert parse_key(text) == (algorithm, key.public_only())
        moved = point_add(key.q, T, curve)
        text = text.replace(f"qx: {key.q.x}\n", f"qx: {moved.x}\n")
        text = text.replace(f"qy: {key.q.y}\n", f"qy: {moved.y}\n")
        with pytest.raises(KeyFileError, match="not a point of the order-n subgroup"):
            parse_key(text)

    def test_dsa_composite_subgroup_order_verifies_to_false(self):
        # q | p - 1 and g, y of order dividing q, but q = 3 * prime: the file
        # parses, and a signature with s = 3, which has no inverse mod q, is
        # refused by verify instead of raising
        q = 3 * gen_prime(158, RngHandle(106))
        rng = random.Random(106)
        p = 0
        while not (p.bit_length() == 512 and is_probable_prime(p)):
            p = q * (rng.getrandbits(512 - q.bit_length()) << 1) + 1
        g = next(g for g in (pow(h, (p - 1) // q, p) for h in range(2, 100)) if g != 1)
        y = pow(g, 5, p)
        text = f"sigforge-key v1\nalgorithm: dsa\ntype: public\np: {p}\nq: {q}\ng: {g}\ny: {y}\n"
        algorithm, key = parse_key(text)
        assert verify_message(algorithm, key, b"m", DsaSignature(1, 3)) is False

    def test_dsa_subgroup_wider_than_512_bits_refused_before_exponentiating(self, monkeypatch):
        # q = (p - 1)/2 on an 8192-bit p: checking g^q = 1 would be an
        # 8190-bit exponentiation of an 8192-bit number, by the comb or by pow
        q = (1 << 8190) + 1
        text = f"sigforge-key v1\nalgorithm: dsa\ntype: public\np: {2 * q + 1}\nq: {q}\ng: 4\ny: 16\n"

        def no_exponentiation(*args):
            raise AssertionError("exponentiation before the width of q was checked")

        for module in (ff_signatures, numeric):
            monkeypatch.setattr(module, "comb_pow", no_exponentiation)
            monkeypatch.setattr(module, "mod_exp", no_exponentiation)
        with pytest.raises(KeyFileError, match="field 'q' is wider than 512 bits"):
            parse_key(text)

    @pytest.mark.parametrize(
        "e,accepted",
        (((1 << 256) - 1, True), ((1 << 256) + 1, False), ((1 << 2047) + 1, False)),
        ids=("2^256-1", "2^256+1", "2048-bit"),
    )
    def test_rsa_public_exponent_below_2_to_256(self, e, accepted):
        n = (1 << 4095) + 1  # odd and 4096 bits wide: a public file checks no more of n
        text = f"sigforge-key v1\nalgorithm: rsa\ntype: public\nn: {n}\ne: {e}\n"
        if accepted:
            assert parse_key(text) == ("rsa", RsaKey(n=n, e=e))
        else:
            with pytest.raises(KeyFileError, match="field 'e' is out of range"):
                parse_key(text)

    @pytest.mark.parametrize("public_only", (True, False), ids=("public", "private"))
    def test_dsa_import_builds_the_tables_that_verify_reads(self, keys, public_only):
        # g^q, y^q and g^x go through the comb, so a key read from a file
        # signs and verifies with g's and y's tables already built
        numeric._power_tables.cache_clear()
        algorithm, key = parse_key(render_key("dsa", keys["dsa"], public_only=public_only))
        built = numeric._power_tables.cache_info()
        assert built.currsize == built.misses == 2
        sig = dsa_sign(keys["dsa"], b"m", RngHandle(102))
        assert verify_message(algorithm, key, b"m", sig)
        assert numeric._power_tables.cache_info().misses == 2

    def test_dsa_invariants_enforced(self, keys):
        key = keys["dsa"]
        text = render_key("dsa", key, public_only=True)
        broken = text.replace(f"q: {key.params.q}", f"q: {key.params.q + 2}")
        with pytest.raises(KeyFileError):
            parse_key(broken)

    def test_duplicate_field_rejected(self, keys):
        text = render_key("rsa", keys["rsa"], public_only=True)
        text += f"e: {keys['rsa'].e}\n"
        with pytest.raises(KeyFileError, match="duplicate"):
            parse_key(text)

    def test_unexpected_field_rejected(self, keys):
        text = render_key("rsa", keys["rsa"], public_only=True) + "z: 12\n"
        with pytest.raises(KeyFileError, match="unexpected"):
            parse_key(text)

    def test_missing_field_rejected(self, keys):
        text = render_key("rsa", keys["rsa"], public_only=True)
        text = "".join(line + "\n" for line in text.splitlines() if not line.startswith("e: "))
        with pytest.raises(KeyFileError, match="missing"):
            parse_key(text)

    def test_non_canonical_integer_rejected(self, keys):
        text = render_key("rsa", keys["rsa"], public_only=True)
        n = keys["rsa"].n
        for bad in (f"0{n}", f"+{n}", f"-{n}", f"{n} ", "abc"):
            with pytest.raises(KeyFileError):
                parse_key(text.replace(f"n: {n}", f"n: {bad}"))

    def test_missing_trailing_newline(self, keys):
        text = render_key("rsa", keys["rsa"], public_only=True)
        with pytest.raises(KeyFileError, match="newline"):
            parse_key(text.rstrip("\n"))

    def test_import_io_error(self, tmp_path):
        with pytest.raises(OSError):
            import_key(tmp_path / "missing.txt")

    @pytest.mark.parametrize("load", (import_key, import_signature))
    def test_import_refuses_bytes_that_are_not_utf8(self, load, tmp_path):
        path = tmp_path / "file.txt"
        path.write_bytes(b"sigforge-key v1\nalgorithm: rsa\xff\n")
        with pytest.raises(KeyFileError, match="not valid UTF-8"):
            load(path)


class TestSignatureFiles:
    def test_rsa_roundtrip(self, tmp_path):
        export_signature("rsa", 123456789, tmp_path / "s.txt")
        assert import_signature(tmp_path / "s.txt") == ("rsa", 123456789)

    def test_dsa_has_exactly_r_and_s(self, tmp_path):
        sig = DsaSignature(12, 34)
        export_signature("dsa", sig, tmp_path / "s.txt")
        lines = (tmp_path / "s.txt").read_text().splitlines()
        assert lines[0] == "sigforge-sig v1"
        value_fields = [line.split(":")[0] for line in lines[1:]]
        assert value_fields == ["algorithm", "r", "s"]
        assert import_signature(tmp_path / "s.txt") == ("dsa", sig)

    def test_ecdsa_roundtrip(self, tmp_path):
        sig = DsaSignature(55, 66)
        export_signature("ecdsa", sig, tmp_path / "s.txt")
        assert import_signature(tmp_path / "s.txt") == ("ecdsa", sig)

    def test_eddsa_roundtrip_and_r_on_curve(self, keys, tmp_path):
        key = keys["eddsa"]
        sig = eddsa_sign(key, b"message")
        export_signature("eddsa", sig, tmp_path / "s.txt")
        algorithm, parsed = import_signature(tmp_path / "s.txt")
        assert (algorithm, parsed) == ("eddsa", sig)
        assert is_on_curve(parsed.R, key.curve)

    def test_bad_header(self):
        with pytest.raises(KeyFileError, match="header"):
            parse_signature("sigforge-key v1\nalgorithm: rsa\ns: 5\n")

    def test_oversized_field_is_a_key_file_error(self):
        # 5,001 digits is past the interpreter's int-from-string limit
        with pytest.raises(KeyFileError, match=r"line 3: field 's' is too long"):
            parse_signature("sigforge-sig v1\nalgorithm: rsa\ns: " + "9" * 5001 + "\n")

    def test_field_past_the_largest_modulus_is_refused(self):
        with pytest.raises(KeyFileError, match=r"field 's' is too long \(4625 digits"):
            parse_signature("sigforge-sig v1\nalgorithm: rsa\ns: " + "9" * 4625 + "\n")

    def test_signature_past_the_largest_modulus_is_not_written(self):
        with pytest.raises(KeyFileError, match=r"field 's' is too long \(4625 digits"):
            render_signature("rsa", 10**4624)

    def test_render_parse_lossless(self):
        sig = EddsaSignature(Point(7, 9), 123)
        text = render_signature("eddsa", sig)
        assert render_signature(*parse_signature(text)) == text


class TestMutationFuzz:
    """Single-byte mutations must never produce a silently different key."""

    @pytest.mark.parametrize(
        "algorithm,public", [("dsa", True), ("ecdsa", False), ("eddsa", True)]
    )
    def test_mutations_are_rejected_or_harmless(self, keys, algorithm, public):
        original = render_key(algorithm, keys[algorithm], public_only=public)
        raw = original.encode()
        rng = RngHandle(202)
        for _ in range(150):
            pos = rng.getrandbits(20) % len(raw)
            mutated = bytearray(raw)
            mutated[pos] = rng.getrandbits(8)
            try:
                algorithm2, key2 = parse_key(bytes(mutated).decode("utf-8"))
            except (KeyFileError, UnicodeDecodeError):
                continue
            assert render_key(algorithm2, key2, public_only=public) == original


FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)
FUZZED_FILES = [(kind, alg) for kind in ("key", "sig") for alg in ("rsa", "dsa", "ecdsa", "eddsa")]


@pytest.fixture(scope="module")
def seeded_files(keys):
    """Seeded public key files and signature files of all four algorithms."""
    rng = RngHandle(303)
    message = b"fuzzed message"
    sigs = {
        "rsa": rsa_sign(keys["rsa"], message),
        "dsa": dsa_sign(keys["dsa"], message, rng),
        "ecdsa": ecdsa_sign(keys["ecdsa"], message, rng),
        "eddsa": eddsa_sign(keys["eddsa"], message),
    }
    files = {}
    for alg, sig in sigs.items():
        files["key", alg] = render_key(alg, keys[alg], public_only=True)
        files["sig", alg] = render_signature(alg, sig)
    return files


def parse_and_render(kind, text):
    if kind == "key":
        algorithm, key = parse_key(text)
        return render_key(algorithm, key, public_only=not key.has_private)
    return render_signature(*parse_signature(text))


@pytest.mark.parametrize("kind,algorithm", FUZZED_FILES)
class TestPropertyFuzz:
    """Hostile text is refused with KeyFileError, or it is exactly the text
    its parsed value renders to: nothing is accepted in a non-canonical form."""

    @FUZZ
    @given(position=st.integers(0, 10**4), byte=st.integers(0, 255))
    def test_single_byte_mutation(self, seeded_files, kind, algorithm, position, byte):
        raw = bytearray(seeded_files[kind, algorithm].encode())
        raw[position % len(raw)] = byte
        # one character per byte, so the parser sees every byte value (a file
        # read from disk is decoded as UTF-8 first, which refuses bytes >= 0x80 here)
        text = raw.decode("latin-1")
        try:
            rendered = parse_and_render(kind, text)
        except KeyFileError:
            return
        assert rendered == text

    @FUZZ
    @given(
        line=st.integers(0, 100),
        position=st.integers(0, 10**4),
        char=st.characters(min_codepoint=0x80),
        replace=st.booleans(),
    )
    def test_non_ascii_character_in_a_value(
        self, seeded_files, kind, algorithm, line, position, char, replace
    ):
        lines = seeded_files[kind, algorithm].split("\n")
        index = 1 + line % (len(lines) - 2)  # not the header or the empty tail
        name, _, value = lines[index].partition(": ")
        at = position % (len(value) + 1)
        lines[index] = f"{name}: {value[:at]}{char}{value[at + replace:]}"
        # every rendered file is ASCII, so no such text can be canonical
        with pytest.raises(KeyFileError):
            parse_and_render(kind, "\n".join(lines))

    @FUZZ
    @given(
        line=st.integers(0, 100),
        digits=st.integers(MAX_FIELD_DIGITS + 1, 3 * MAX_FIELD_DIGITS),
        seed=st.integers(0, 2**32),
    )
    def test_oversized_integer_field(self, seeded_files, kind, algorithm, line, digits, seed):
        lines = seeded_files[kind, algorithm].split("\n")
        numeric = [i for i, text in enumerate(lines) if text.partition(": ")[2].isdigit()]
        index = numeric[line % len(numeric)]
        name = lines[index].partition(": ")[0]
        rnd = random.Random(seed)
        value = str(rnd.randint(1, 9)) + "".join(rnd.choices("0123456789", k=digits - 1))
        lines[index] = f"{name}: {value}"
        with pytest.raises(KeyFileError, match="too long"):
            parse_and_render(kind, "\n".join(lines))


class TestLineOrder:
    """Fields are read against the layout that writes them: a file with its
    lines in any other order is refused, naming the first line out of place."""

    def test_swapped_key_lines_name_the_first_misplaced_line(self, keys):
        lines = render_key("eddsa", keys["eddsa"], public_only=True).splitlines()
        assert [line.partition(":")[0] for line in lines[5:]] == ["qx", "qy"]
        lines[5], lines[6] = lines[6], lines[5]
        with pytest.raises(KeyFileError, match=r"^line 6: expected field 'qx', got 'qy'$"):
            parse_key("\n".join(lines) + "\n")

    def test_swapped_header_fields_name_the_first_misplaced_line(self, keys):
        lines = render_key("ecdsa", keys["ecdsa"]).splitlines()
        lines[2], lines[4] = lines[4], lines[2]  # form and type
        with pytest.raises(KeyFileError, match=r"^line 3: expected field 'form', got 'type'$"):
            parse_key("\n".join(lines) + "\n")

    def test_swapped_signature_lines_name_the_first_misplaced_line(self, keys):
        lines = render_signature("eddsa", eddsa_sign(keys["eddsa"], b"m")).splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        with pytest.raises(KeyFileError, match=r"^line 3: expected field 'rx', got 'ry'$"):
            parse_signature("\n".join(lines) + "\n")

    def test_algorithm_line_must_come_first(self):
        with pytest.raises(KeyFileError, match=r"^line 2: expected field 'algorithm', got 's'$"):
            parse_signature("sigforge-sig v1\ns: 5\nalgorithm: rsa\n")

    def test_private_field_in_a_public_file(self, keys):
        text = render_key("dsa", keys["dsa"]).replace("type: private", "type: public")
        with pytest.raises(KeyFileError, match=r"^line 8: unexpected field 'x'$"):
            parse_key(text)

    def test_private_file_without_its_private_field(self, keys):
        text = render_key("dsa", keys["dsa"], public_only=True)
        text = text.replace("type: public", "type: private")
        with pytest.raises(KeyFileError, match=r"^missing field 'x'$"):
            parse_key(text)


ALGORITHMS = ("rsa", "dsa", "ecdsa", "eddsa")
ORDERED_FILES = [("key", alg, public) for alg in ALGORITHMS for public in (True, False)]
ORDERED_FILES += [("sig", alg, None) for alg in ALGORITHMS]


@pytest.mark.parametrize("kind,algorithm,public", ORDERED_FILES)
@FUZZ
@given(data=st.data())
def test_every_reordering_of_the_field_lines_is_refused(
    keys, seeded_files, kind, algorithm, public, data
):
    if kind == "key":
        text = render_key(algorithm, keys[algorithm], public_only=public)
    else:
        text = seeded_files["sig", algorithm]
    header, *fields = text.splitlines()
    order = data.draw(st.permutations(range(len(fields))))
    assume(order != list(range(len(fields))))
    with pytest.raises(KeyFileError):
        parse_and_render(kind, "\n".join([header] + [fields[i] for i in order]) + "\n")
