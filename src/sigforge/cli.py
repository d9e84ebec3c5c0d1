"""Command-line interface.

Subcommands: keygen, sign, verify, bench.  Exit codes: 0 success (or valid
signature), 1 invalid signature, 2 usage error, 3 IO or parse error.
"""

import argparse
import sys

from . import keystore
from .bench import SUITES, emit_csv, run_bench
from .cryptosystem import Cryptosystem, sign_message, verify_message
from .curves import FORMS
from .errors import KeyFileError
from .numeric import RngHandle
from .schemes import SCHEMES

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_IO = 3


def build_parser():
    parser = argparse.ArgumentParser(prog="sigforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="generate a key pair and write both halves")
    keygen.add_argument("--algorithm", required=True, choices=SCHEMES)
    keygen.add_argument("--bits", type=int, help="modulus size for rsa/dsa")
    keygen.add_argument("--form", choices=FORMS, help="curve form (elliptic only)")
    keygen.add_argument("--curve", help="curve name (elliptic only)")
    keygen.add_argument("--out", required=True, help="private key file")
    keygen.add_argument("--pub", required=True, help="public key file")
    keygen.add_argument("--seed", type=int, help="deterministic randomness for testing")

    sign = sub.add_parser("sign", help="sign a message file")
    sign.add_argument("--key", required=True, help="private key file")
    sign.add_argument("--in", dest="infile", required=True, help="message file (raw bytes)")
    sign.add_argument("--out", required=True, help="signature file to write")

    verify = sub.add_parser("verify", help="verify a message file against a signature")
    verify.add_argument("--key", required=True, help="public (or private) key file")
    verify.add_argument("--in", dest="infile", required=True, help="message file (raw bytes)")
    verify.add_argument("--sig", required=True, help="signature file")

    bench = sub.add_parser("bench", help="run the timing harness and emit CSV")
    bench.add_argument("--suite", choices=sorted(SUITES), default="default")
    bench.add_argument("--repeats", type=int, default=5)
    bench.add_argument("--out", help="CSV file (stdout when omitted)")
    bench.add_argument("--seed", type=int, help="deterministic randomness for testing")

    return parser


def _cmd_keygen(args):
    system = Cryptosystem(
        args.algorithm, form=args.form, curve=args.curve, bits=args.bits, seed=args.seed
    )
    system.export_keys(args.out, public=False)
    system.export_keys(args.pub, public=True)
    return EXIT_OK


def _cmd_sign(args):
    algorithm, key = keystore.import_key(args.key)
    with open(args.infile, "rb") as fh:
        message = fh.read()
    signature = sign_message(algorithm, key, message, RngHandle())
    keystore.export_signature(algorithm, signature, args.out)
    return EXIT_OK


def _cmd_verify(args):
    algorithm, key = keystore.import_key(args.key)
    sig_algorithm, signature = keystore.import_signature(args.sig)
    if sig_algorithm != algorithm:
        print(
            f"error: {sig_algorithm} signature cannot be checked with a {algorithm} key",
            file=sys.stderr,
        )
        return EXIT_USAGE
    with open(args.infile, "rb") as fh:
        message = fh.read()
    if verify_message(algorithm, key, message, signature):
        print("signature valid")
        return EXIT_OK
    print("signature invalid")
    return EXIT_INVALID


def _bench_progress(r):
    name = r.curve if r.curve != "-" else r.key_size
    cold = "" if r.first_use_s is None else f" (first use {r.first_use_s * 1e3:.0f} ms)"
    print(f"bench: {r.algorithm} {name} done{cold}", file=sys.stderr)


def _cmd_bench(args):
    records = run_bench(
        SUITES[args.suite], repeats=args.repeats, seed=args.seed, progress=_bench_progress
    )
    csv_text = emit_csv(records)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(csv_text.encode("utf-8"))
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


_COMMANDS = {
    "keygen": _cmd_keygen,
    "sign": _cmd_sign,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (KeyFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
