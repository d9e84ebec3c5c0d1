import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sigforge.cli as cli_module
import sigforge.curves as curves_module
from sigforge.bench import BenchConfig
from sigforge.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_USAGE, cli_main


@pytest.fixture
def message_file(tmp_path):
    path = tmp_path / "message.bin"
    path.write_bytes(b"attack at dawn \x00\xff binary ok")
    return path


def keygen(tmp_path, *extra):
    priv = tmp_path / "priv.txt"
    pub = tmp_path / "pub.txt"
    rc = cli_main(
        ["keygen", "--out", str(priv), "--pub", str(pub), "--seed", "7", *extra]
    )
    assert rc == EXIT_OK
    return priv, pub


class TestPipeline:
    def test_ed25519_roundtrip(self, tmp_path, message_file):
        priv, pub = keygen(
            tmp_path, "--algorithm", "eddsa", "--form", "edwards", "--curve", "ed25519"
        )
        sig = tmp_path / "msg.sig"
        assert cli_main(["sign", "--key", str(priv), "--in", str(message_file), "--out", str(sig)]) == EXIT_OK
        assert cli_main(["verify", "--key", str(pub), "--in", str(message_file), "--sig", str(sig)]) == EXIT_OK

    def test_flipped_byte_is_invalid(self, tmp_path, message_file):
        priv, pub = keygen(tmp_path, "--algorithm", "ecdsa", "--curve", "secp192k1")
        sig = tmp_path / "msg.sig"
        cli_main(["sign", "--key", str(priv), "--in", str(message_file), "--out", str(sig)])
        raw = bytearray(message_file.read_bytes())
        raw[3] ^= 0x20
        message_file.write_bytes(bytes(raw))
        assert cli_main(["verify", "--key", str(pub), "--in", str(message_file), "--sig", str(sig)]) == EXIT_INVALID

    def test_rsa_and_dsa_pipelines(self, tmp_path, message_file):
        for algorithm in ("rsa", "dsa"):
            priv, pub = keygen(tmp_path, "--algorithm", algorithm, "--bits", "512")
            sig = tmp_path / f"{algorithm}.sig"
            assert cli_main(["sign", "--key", str(priv), "--in", str(message_file), "--out", str(sig)]) == EXIT_OK
            assert cli_main(["verify", "--key", str(pub), "--in", str(message_file), "--sig", str(sig)]) == EXIT_OK

    def test_verify_with_private_key_also_works(self, tmp_path, message_file):
        priv, _ = keygen(tmp_path, "--algorithm", "eddsa")
        sig = tmp_path / "msg.sig"
        cli_main(["sign", "--key", str(priv), "--in", str(message_file), "--out", str(sig)])
        assert cli_main(["verify", "--key", str(priv), "--in", str(message_file), "--sig", str(sig)]) == EXIT_OK


class TestUsageErrors:
    def test_unknown_curve_lists_registry(self, tmp_path, capsys):
        rc = cli_main(
            ["keygen", "--algorithm", "ecdsa", "--curve", "wat",
             "--out", str(tmp_path / "a"), "--pub", str(tmp_path / "b")]
        )
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "secp256k1" in err and "ed25519" in err

    def test_unknown_subcommand(self):
        assert cli_main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self, tmp_path):
        assert cli_main(["keygen", "--algorithm", "rsa", "--out", str(tmp_path / "a")]) == EXIT_USAGE

    def test_signing_with_public_key(self, tmp_path, message_file):
        _, pub = keygen(tmp_path, "--algorithm", "eddsa")
        rc = cli_main(["sign", "--key", str(pub), "--in", str(message_file), "--out", str(tmp_path / "s")])
        assert rc == EXIT_USAGE

    def test_algorithm_mismatch_between_key_and_signature(self, tmp_path, message_file):
        priv_ed, pub_ed = keygen(tmp_path, "--algorithm", "eddsa")
        sig = tmp_path / "ed.sig"
        cli_main(["sign", "--key", str(priv_ed), "--in", str(message_file), "--out", str(sig)])
        rsa_dir = tmp_path / "rsa"
        rsa_dir.mkdir()
        _, rsa_pub = keygen(rsa_dir, "--algorithm", "rsa", "--bits", "512")
        assert cli_main(["verify", "--key", str(rsa_pub), "--in", str(message_file), "--sig", str(sig)]) == EXIT_USAGE

    def test_form_mismatch(self, tmp_path):
        rc = cli_main(
            ["keygen", "--algorithm", "eddsa", "--form", "koblitz", "--curve", "ed25519",
             "--out", str(tmp_path / "a"), "--pub", str(tmp_path / "b")]
        )
        assert rc == EXIT_USAGE

    def test_bits_for_a_curve(self, tmp_path, capsys):
        rc = cli_main(
            ["keygen", "--algorithm", "ecdsa", "--bits", "4096",
             "--out", str(tmp_path / "a"), "--pub", str(tmp_path / "b")]
        )
        assert rc == EXIT_USAGE
        assert "bits" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_bench_repeats_too_small(self):
        assert cli_main(["bench", "--repeats", "2"]) == EXIT_USAGE

    def test_rsa_bits_too_small(self, tmp_path):
        rc = cli_main(
            ["keygen", "--algorithm", "rsa", "--bits", "256",
             "--out", str(tmp_path / "a"), "--pub", str(tmp_path / "b")]
        )
        assert rc == EXIT_USAGE


class TestIoErrors:
    def test_missing_message_file(self, tmp_path):
        priv, _ = keygen(tmp_path, "--algorithm", "eddsa")
        rc = cli_main(["sign", "--key", str(priv), "--in", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "s")])
        assert rc == EXIT_IO

    def test_corrupt_key_file(self, tmp_path, message_file):
        bad = tmp_path / "bad.txt"
        bad.write_text("sigforge-key v1\nalgorithm: rsa\ntype: public\nn: zzz\ne: 3\n")
        rc = cli_main(["sign", "--key", str(bad), "--in", str(message_file), "--out", str(tmp_path / "s")])
        assert rc == EXIT_IO

    def test_oversized_signature_field(self, tmp_path, message_file):
        priv, pub = keygen(tmp_path, "--algorithm", "eddsa")
        sig = tmp_path / "msg.sig"
        cli_main(["sign", "--key", str(priv), "--in", str(message_file), "--out", str(sig)])
        lines = sig.read_text().splitlines()
        lines[-1] = "s: " + "7" * 5001
        sig.write_text("\n".join(lines) + "\n")
        rc = cli_main(["verify", "--key", str(pub), "--in", str(message_file), "--sig", str(sig)])
        assert rc == EXIT_IO

    @pytest.mark.parametrize(
        "key,sig",
        (
            ("algorithm: rsa\ntype: public\nn: 3233\ne: 17\n", "algorithm: rsa\ns: 5\n"),
            ("algorithm: dsa\ntype: public\np: 23\nq: 11\ng: 4\ny: 18\n", "algorithm: dsa\nr: 8\ns: 1\n"),
        ),
    )
    def test_modulus_under_512_bits(self, tmp_path, message_file, capsys, key, sig):
        (tmp_path / "pub.txt").write_text("sigforge-key v1\n" + key)
        (tmp_path / "msg.sig").write_text("sigforge-sig v1\n" + sig)
        rc = cli_main(["verify", "--key", str(tmp_path / "pub.txt"), "--in", str(message_file), "--sig", str(tmp_path / "msg.sig")])
        assert rc == EXIT_IO
        assert "too small" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ("pub.txt", "msg.sig"))
    def test_file_that_is_not_utf8(self, tmp_path, message_file, capsys, bad):
        priv, pub = keygen(tmp_path, "--algorithm", "eddsa")
        sig = tmp_path / "msg.sig"
        cli_main(["sign", "--key", str(priv), "--in", str(message_file), "--out", str(sig)])
        (tmp_path / bad).write_bytes((tmp_path / bad).read_bytes() + b"\xff\n")
        rc = cli_main(["verify", "--key", str(pub), "--in", str(message_file), "--sig", str(sig)])
        assert rc == EXIT_IO
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_missing_key_file(self, tmp_path, message_file):
        rc = cli_main(["verify", "--key", str(tmp_path / "nope"), "--in", str(message_file), "--sig", str(tmp_path / "s")])
        assert rc == EXIT_IO


class TestBenchCommand:
    @pytest.fixture
    def tiny_suite(self, monkeypatch):
        monkeypatch.setattr(
            cli_module, "SUITES", {"default": (BenchConfig("ecdsa", curve="secp192k1"),)}
        )

    def test_bench_writes_csv_file(self, tiny_suite, tmp_path):
        out = tmp_path / "results.csv"
        rc = cli_main(["bench", "--repeats", "3", "--seed", "1", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_bytes().decode().splitlines()
        assert lines[0] == "algorithm,form,curve,key_size,hash,keygen_s,sign_s,verify_s"
        assert lines[1].startswith("ecdsa,weierstrass,secp192k1,192,sha224,")

    def test_bench_stdout_when_no_out(self, tiny_suite, capsys):
        assert cli_main(["bench", "--repeats", "3", "--seed", "1"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("algorithm,form,curve,")
        assert "ecdsa" in captured.out

    def test_bench_reports_each_curves_first_lookup(self, monkeypatch, capsys):
        # cold start gets its own figure on the curve's first row, which times the
        # lookup plus G's table build, and stays out of the timed repeats and the CSV
        suite = (
            BenchConfig("ecdsa", curve="secp192k1"),
            BenchConfig("eddsa", curve="secp192k1"),
            BenchConfig("rsa", bits=512),
        )
        monkeypatch.setattr(cli_module, "SUITES", {"default": suite})
        curves_module._comb_table.cache_clear()
        assert cli_main(["bench", "--repeats", "3", "--seed", "1"]) == EXIT_OK
        captured = capsys.readouterr()
        first, *rest = captured.err.splitlines()
        assert re.fullmatch(r"bench: ecdsa secp192k1 done \(first use \d+ ms\)", first)
        assert rest == ["bench: eddsa secp192k1 done", "bench: rsa 512 done"]
        assert curves_module._comb_table.cache_info().misses == 1
        assert captured.out.splitlines()[0] == "algorithm,form,curve,key_size,hash,keygen_s,sign_s,verify_s"

    def test_unknown_suite_is_usage_error(self, tiny_suite):
        assert cli_main(["bench", "--suite", "huge"]) == EXIT_USAGE

    def test_cli_import_leaves_statistics_to_bench(self):
        # keygen, sign and verify processes import the CLI but never time anything
        src = str(Path(cli_module.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, sigforge.cli; assert 'statistics' not in sys.modules"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr


class TestHelp:
    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == EXIT_OK
        assert cli_main(["keygen", "--help"]) == EXIT_OK
