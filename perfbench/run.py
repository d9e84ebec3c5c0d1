"""sigforge keygen/sign/verify benchmark.

    python3 perfbench/run.py --workload ec-prime --seed 1 --seconds 20 --trace 0

Runs one workload (ec-prime, ec-binary, ff or cli) as a closed loop with one
caller: whole rounds of the same operations until --seconds have passed.
The cli workload starts one ``python -m sigforge.cli`` child at a time.
Set-up is timed in fresh processes (setup_child.py).  Outputs are checked
after the timed loop by checks.py, which shares no code with sigforge.  The
last line printed is a JSON object with correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer calls and self
time of a traced run (tracing.py) with --trace 1.
Result and span files go to perfbench/out/.
"""

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
from tracing import CLI_MAIN, CLI_STARTUP, SPAN_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# a run times the set-up of at least SETUPS fresh processes, and keeps
# starting them for at least SETUP_MIN_S; setup_s is the median
SETUPS = 3
SETUP_MIN_S = 3.0
# the length of the fixed message that sigforge's own harness signs (bench.BENCH_MESSAGE)
MESSAGE_BYTES = 1024
SAMPLE_ROUND = 0  # round whose outputs also get the costly textbook and tamper checks
SIGNS_PER_FF_KEY = 8
CHILD_TIMEOUT_S = 120
KINDS = ("keygen", "sign", "verify")

EC_PRIME = (
    ("ecdsa", "p256"),
    ("ecdsa", "secp256k1"),
    ("ecdsa", "p384"),
    ("ecdsa", "p521"),
    ("ecdsa", "ed25519"),
    ("eddsa", "ed25519"),
    ("eddsa", "ed448"),
    ("eddsa", "p256"),
    ("eddsa", "secp256k1"),
)
EC_BINARY = tuple(
    (alg, curve) for alg in ("ecdsa", "eddsa") for curve in ("sect113r1", "k163", "b163", "k233", "b233")
)
FF = (("rsa", 1024), ("rsa", 2048), ("dsa", 1024), ("dsa", 2048))
# RSA/DSA key generation searches for primes from a random start, so its cost
# varies several-fold from one key to the next; their keygen seeds are fixed
# so that every run generates the same keys (messages and nonces still follow
# --seed).
CLI_RSA_SEED = "2048"


def sigforge_env():
    """This process's environment, with sigforge's sources on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def setup_child_s(module, curves):
    """Seconds a fresh process takes to import module and look up curves."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), module, *curves],
        stdout=subprocess.PIPE,
        env=sigforge_env(),
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout)


def flip_bit(message, bit):
    out = bytearray(message)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def machine_meta():
    uname = platform.uname()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "compiler": platform.python_compiler(),
        "system": f"{uname.system} {uname.release}",
        "machine": uname.machine,
        "cpu_count": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
    }


def checker_curve(spec):
    """A checks.Curve with the registry's parameters as plain ints."""
    field = (spec.field.m, spec.field.poly) if spec.form == "koblitz" else spec.field
    return checks.Curve(spec.form, field, spec.a, spec.b, spec.g, spec.n)


class Bench:
    """Operation timings and counts, and the deferred output checks, of one run."""

    def __init__(self, workload, seed, trace):
        self.rng = random.Random(f"{workload}:{seed}")
        self.traced = trace
        # cli children trace themselves (cli_child.py); the parent runs no traced code
        self.tracer = Tracer() if trace and workload != "cli" else None
        self.samples = {}  # (kind, configuration) -> durations of its operations
        self.done = 0
        self.attempted = 0
        self.failed = 0
        self.pending = []  # callables returning the number of failed ops of one unit
        self.selftested = set()
        self.blind = []  # checkers that accepted a deliberately wrong output
        self.sf = None

    def timed(self, kind, config, fn, *args):
        start = perf_counter()
        out = fn(*args)
        self.samples.setdefault((kind, config), []).append(perf_counter() - start)
        self.done += 1
        return out

    def rate(self, kind):
        """Operations per second: every configuration once, each at its median time.

        A round runs each configuration equally often, so this is the
        completed-per-second figure of a round, with bursts of machine noise
        voted out by the medians.
        """
        medians = [statistics.median(v) for (k, _), v in self.samples.items() if k == kind]
        return len(medians) / sum(medians) if medians else 0.0

    def unit(self, n_ops, body, check):
        """Run n_ops operations; an exception fails every op it left unfinished."""
        self.attempted += n_ops
        done = self.done
        try:
            out = body()
        except Exception as exc:  # a fault in the program: count it, keep measuring
            self.failed += n_ops - (self.done - done)
            print(f"operation raised {exc!r}", file=sys.stderr)
            return
        self.pending.append(lambda: check(out))

    def judge(self, name, checker, real, wrong):
        """checker(*real); the first use of each named check must also reject checker(*wrong)."""
        if name not in self.selftested:
            self.selftested.add(name)
            if checker(*wrong):
                self.blind.append(name)
        return bool(checker(*real))


# --- in-process workloads -------------------------------------------------------


def setup_in_process(bench, curves):
    sf = importlib.import_module("sigforge")
    if bench.tracer:
        bench.tracer.install()
    for name in curves:
        sf.registry.get_curve(name)
    return sf


def ec_round(bench, pairs, round_no):
    sf, rng = bench.sf, bench.rng
    cs, RngHandle = sf.cryptosystem, sf.numeric.RngHandle
    sample = round_no == SAMPLE_ROUND
    for alg, curve_name in pairs:
        key_seed, nonce_seed = rng.getrandbits(64), rng.getrandbits(64)
        message = rng.randbytes(MESSAGE_BYTES)
        flipped = flip_bit(message, rng.randrange(8 * MESSAGE_BYTES))

        def body(alg=alg, curve_name=curve_name, key_seed=key_seed, nonce_seed=nonce_seed, message=message):
            config = f"{alg}-{curve_name}"
            key = bench.timed("keygen", config, cs.generate_key, alg, RngHandle(key_seed), None, curve_name)
            sig = bench.timed("sign", config, cs.sign_message, alg, key, message, RngHandle(nonce_seed))
            return key, sig, bench.timed("verify", config, cs.verify_message, alg, key, message, sig)

        bench.unit(3, body, lambda out, alg=alg, m=message, f=flipped: check_ec(bench, alg, out, m, f, sample))


def check_ec(bench, alg, out, message, flipped, sample):
    key, sig, valid = out
    spec, ka, q = key.curve, key.ka, tuple(key.q)
    name = spec.name
    curve = checker_curve(spec)
    verify_ok = valid is True
    if sample:
        verify_ok &= bench.sf.cryptosystem.verify_message(alg, key, flipped, sig) is False

    if name in checks.OPENSSL_CURVES:
        key_ok = bench.judge(f"openssl_public/{name}", checks.openssl_public_matches, (name, ka, q), (name, ka + 1, q))
    elif sample:
        key_ok = bench.judge(f"textbook_public/{name}", checks.public_point_matches, (curve, ka, q), (curve, ka, curve.g))
    else:
        key_ok = True

    if alg == "ecdsa":
        r, s = sig
        if name in checks.OPENSSL_CURVES:
            sign_ok = bench.judge(
                f"ecdsa_openssl/{name}", checks.ecdsa_openssl, (name, q, message, r, s), (name, q, message, r, s + 1)
            )
        elif sample:
            sign_ok = bench.judge(
                f"ecdsa_textbook/{name}", checks.ecdsa_textbook, (curve, q, message, r, s), (curve, q, message, r, s + 1)
            )
        else:
            sign_ok = True
    else:
        big_r, s = tuple(sig.R), sig.s
        sign_ok = bench.judge(
            f"eddsa_equation/{name}",
            checks.eddsa_equation,
            (curve, q, ka, message, big_r, s),
            (curve, q, ka, message, big_r, s + 1),
        )
        if sample:
            sign_ok &= bench.judge(
                f"eddsa_commitment/{name}", checks.eddsa_commitment, (curve, message, big_r), (curve, message, q)
            )
    return (not key_ok) + (not sign_ok) + (not verify_ok)


def ff_round(bench, round_no):
    sf, rng = bench.sf, bench.rng
    cs, RngHandle = sf.cryptosystem, sf.numeric.RngHandle
    sample = round_no == SAMPLE_ROUND
    for alg, bits in FF:
        messages = [rng.randbytes(MESSAGE_BYTES) for _ in range(SIGNS_PER_FF_KEY)]
        nonce_seeds = [rng.getrandbits(64) for _ in messages]
        flips = [flip_bit(m, rng.randrange(8 * MESSAGE_BYTES)) for m in messages]
        probe = rng.getrandbits(bits - 2) | 2

        def body(alg=alg, bits=bits, messages=messages, nonce_seeds=nonce_seeds):
            config = f"{alg}-{bits}"
            key = bench.timed("keygen", config, cs.generate_key, alg, RngHandle(f"keygen:{alg}-{bits}"), bits)
            sigs, valid = [], []
            for message, nonce_seed in zip(messages, nonce_seeds):
                sig = bench.timed("sign", config, cs.sign_message, alg, key, message, RngHandle(nonce_seed))
                valid.append(bench.timed("verify", config, cs.verify_message, alg, key, message, sig))
                sigs.append(sig)
            return key, sigs, valid

        bench.unit(
            1 + 2 * len(messages),
            body,
            lambda out, alg=alg, bits=bits, ms=messages, fs=flips, probe=probe: check_ff(
                bench, alg, bits, out, ms, fs, probe, sample
            ),
        )


def check_ff(bench, alg, bits, out, messages, flips, probe, sample):
    key, sigs, valid = out
    verify_message = bench.sf.cryptosystem.verify_message
    failed = 0
    label = f"{alg}{bits}"
    if alg == "rsa":
        n, e, d = key.n, key.e, key.d
        failed += not bench.judge(f"rsa_key/{label}", checks.rsa_key, (n, e, d, bits, probe), (n, e, d + 2, bits, probe))
        for message, s in zip(messages, sigs):
            failed += not bench.judge(
                f"rsa_signature/{label}", checks.rsa_signature, (n, e, message, s), (n, e, message, (s + 1) % n)
            )
    else:
        p, q, g, y, x = key.params.p, key.params.q, key.params.g, key.y, key.x
        failed += not bench.judge(f"dsa_key/{label}", checks.dsa_key, (p, q, g, y, x), (p, q, g, y * g % p, x))
        for message, (r, s) in zip(messages, sigs):
            failed += not bench.judge(
                f"dsa_openssl/{label}", checks.dsa_openssl, (p, q, g, y, message, r, s), (p, q, g, y, message, r, s + 1)
            )
    for message, flipped, sig, ok in zip(messages, flips, sigs, valid):
        if ok is not True or (sample and verify_message(alg, key, flipped, sig) is not False):
            failed += 1
    return failed


# --- cli workload -------------------------------------------------------------


class CliRunner:
    """Starts sigforge CLI children one at a time through spawn.py, traced or not."""

    def __init__(self, bench, workdir):
        self.bench = bench
        self.workdir = workdir
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py"), str(CHILD_TIMEOUT_S)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=sigforge_env(),
            text=True,
        )
        self.procs = 0
        self.maxrss_kb = 0  # of the children so far
        self.totals = {name: [0, 0.0] for name in SPAN_NAMES}

    def run(self, argv):
        proc_id = self.procs
        self.procs += 1
        spans = self.workdir / f"spans-{proc_id}.csv.gz"
        if self.bench.traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans), str(proc_id), *argv]
        else:
            cmd = [sys.executable, "-m", "sigforge.cli", *argv]
        self.spawner.stdin.write(json.dumps(cmd) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        sys.stderr.write(reply["stderr"])
        self.maxrss_kb = reply["maxrss_kb"]
        if spans.exists():  # a traced child that ran to its end
            self._merge(spans, reply["wall"])
        return reply["code"]

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait(timeout=CHILD_TIMEOUT_S)

    def _merge(self, spans, wall):
        child = Tracer.load(spans)
        for name, (calls, self_s) in child.totals().items():
            self.totals[name][0] += calls
            self.totals[name][1] += self_s
        self.totals[CLI_STARTUP][0] += 1
        self.totals[CLI_STARTUP][1] += wall - child.duration(CLI_MAIN)
        with open(spans, "rb") as src, open(self.bench.trace_path, "ab") as dst:
            shutil.copyfileobj(src, dst)
        spans.unlink()


def read_fields(path):
    """{name: value} of a key or signature file (the format in sigforge's README)."""
    lines = path.read_text(encoding="utf-8").split("\n")[1:]
    return dict(line.split(": ", 1) for line in lines if line)


def cli_round(bench, round_no):
    rng, runner = bench.rng, bench.cli
    d = runner.workdir / f"c{round_no}"
    d.mkdir(parents=True)
    labels = ("ed25519", "p256", "rsa")
    for label in labels:
        (d / f"{label}.msg").write_bytes(rng.randbytes(MESSAGE_BYTES))
    tampered = flip_bit((d / "ed25519.msg").read_bytes(), rng.randrange(8 * MESSAGE_BYTES))
    (d / "tampered.msg").write_bytes(tampered)

    def f(label, ext):
        return str(d / f"{label}.{ext}")

    keygen_args = {
        "ed25519": ["--algorithm", "eddsa", "--curve", "ed25519", "--seed", str(rng.getrandbits(32))],
        "p256": ["--algorithm", "ecdsa", "--curve", "p256", "--seed", str(rng.getrandbits(32))],
        "rsa": ["--algorithm", "rsa", "--bits", "2048", "--seed", CLI_RSA_SEED],
    }
    ops = [("keygen", ["keygen", *keygen_args[x], "--out", f(x, "priv"), "--pub", f(x, "pub")], 0) for x in labels]
    ops += [("sign", ["sign", "--key", f(x, "priv"), "--in", f(x, "msg"), "--out", f(x, "sig")], 0) for x in labels]
    ops += [("verify", ["verify", "--key", f(x, "pub"), "--in", f(x, "msg"), "--sig", f(x, "sig")], 0) for x in labels]
    ops.append(("verify", ["verify", "--key", f("ed25519", "pub"), "--in", str(d / "tampered.msg"), "--sig", f("ed25519", "sig")], 1))
    codes = []
    for i, (kind, argv, _) in enumerate(ops):
        bench.attempted += 1
        codes.append(bench.timed(kind, i, runner.run, argv))
    bench.pending.append(lambda: check_cli(bench, d, [expected for _, _, expected in ops], codes))


def check_cli(bench, d, expected, codes):
    """Failed processes of one cycle: wrong exit code, or keys/signatures that fail the checks."""
    failed = [code != want for code, want in zip(codes, expected)]
    for i, label in enumerate(("ed25519", "p256", "rsa")):
        try:
            key_ok, sign_ok = check_cli_files(bench, d, label)
        except (OSError, ValueError, KeyError):  # missing or malformed output files
            key_ok = sign_ok = False
        failed[i] |= not key_ok
        failed[3 + i] |= not sign_ok
    return sum(failed)


def check_cli_files(bench, d, label):
    """(key files pass, signature file passes) for one key of a cycle."""
    priv = read_fields(d / f"{label}.priv")
    pub = read_fields(d / f"{label}.pub")
    sig = {k: int(v) for k, v in read_fields(d / f"{label}.sig").items() if v.isdigit()}
    num = {k: int(v) for k, v in priv.items() if v.isdigit()}
    message = (d / f"{label}.msg").read_bytes()
    pub_same = all(priv.get(k) == v for k, v in pub.items() if k != "type")
    if label == "rsa":
        n, e, dd = num["n"], num["e"], num["d"]
        key_ok = bench.judge("rsa_key/cli", checks.rsa_key, (n, e, dd, 2048, 3), (n, e, dd + 2, 2048, 3))
        return key_ok and pub_same, bench.judge(
            "rsa_signature/cli", checks.rsa_signature, (n, e, message, sig["s"]), (n, e, message, (sig["s"] + 1) % n)
        )
    ka, q = num["ka"], (num["qx"], num["qy"])
    if label == "p256":
        key_ok = bench.judge("openssl_public/cli", checks.openssl_public_matches, (label, ka, q), (label, ka + 1, q))
        r, s = sig["r"], sig["s"]
        return key_ok and pub_same, bench.judge(
            "ecdsa_openssl/cli", checks.ecdsa_openssl, (label, q, message, r, s), (label, q, message, r, s + 1)
        )
    curve = checker_curve(bench.sf.registry.get_curve(label))
    key_ok = bench.judge("textbook_public/cli", checks.public_point_matches, (curve, ka, q), (curve, ka, curve.g))
    big_r, s = (sig["rx"], sig["ry"]), sig["s"]
    sign_ok = bench.judge(
        "eddsa_equation/cli",
        checks.eddsa_equation,
        (curve, q, ka, message, big_r, s),
        (curve, q, ka, message, big_r, s + 1),
    ) and bench.judge("eddsa_commitment/cli", checks.eddsa_commitment, (curve, message, big_r), (curve, message, q))
    return key_ok and pub_same, sign_ok


# workload -> (module its processes import, curves they look up, round)
WORKLOADS = {
    "ec-prime": ("sigforge", sorted({c for _, c in EC_PRIME}), lambda b, r: ec_round(b, EC_PRIME, r)),
    "ec-binary": ("sigforge", sorted({c for _, c in EC_BINARY}), lambda b, r: ec_round(b, EC_BINARY, r)),
    "ff": ("sigforge", (), ff_round),
    "cli": ("sigforge.cli", (), cli_round),
}


# --- one run ------------------------------------------------------------------


def run(args):
    module, curves, round_fn = WORKLOADS[args.workload]
    bench = Bench(args.workload, args.seed, args.trace)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    OUT.mkdir(exist_ok=True)
    bench.trace_path = OUT / f"spans-{tag}.csv.gz"
    if bench.trace_path.exists():
        bench.trace_path.unlink()

    setup_times = []
    start = perf_counter()
    while len(setup_times) < SETUPS or perf_counter() - start < SETUP_MIN_S:
        setup_times.append(setup_child_s(module, curves))
    # this process sets up once, untimed, for the rounds and the checks
    bench.sf = setup_in_process(bench, curves)
    workdir = OUT / f"cli-{tag}"
    if args.workload == "cli":
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
    setup_spans = len(bench.tracer.name) if bench.tracer else 0

    rounds = 0
    if args.workload == "cli":
        bench.cli = CliRunner(bench, workdir)
    try:
        start = perf_counter()
        while rounds == 0 or perf_counter() - start < args.seconds:
            round_fn(bench, rounds)
            if rounds == 0:
                # read after a fixed round: later rounds add outputs held for the
                # checkers, so a later reading would grow with the speed of the run
                if args.workload == "cli":
                    peak_rss_mb = bench.cli.maxrss_kb / 1024
                else:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            rounds += 1
    finally:
        if args.workload == "cli":
            bench.cli.close()
    round_spans = len(bench.tracer.name) if bench.tracer else 0

    for check in bench.pending:
        bench.failed += check()
    if args.workload == "cli":
        shutil.rmtree(workdir)

    end_to_end = {"setup_s": (statistics.median(setup_times), "s")}
    for kind in KINDS:
        end_to_end[f"{kind}_per_s"] = (bench.rate(kind), "ops/s")
    end_to_end["peak_rss_mb"] = (peak_rss_mb, "MB")

    per_layer = {}
    if args.trace:
        if args.workload == "cli":
            setup, ops = {name: [0, 0.0] for name in SPAN_NAMES}, bench.cli.totals
        else:
            setup, ops = bench.tracer.totals(0, setup_spans), bench.tracer.totals(setup_spans, round_spans)
            bench.tracer.dump(bench.trace_path)
        for name in SPAN_NAMES:
            # one set-up plus one round: set-up spans once, round spans averaged
            per_layer[f"{name}.calls"] = (setup[name][0] + ops[name][0] / rounds, "count")
            per_layer[f"{name}.self_s"] = (setup[name][1] + ops[name][1] / rounds, "s")

    correct = not bench.blind
    if bench.blind:
        print(f"checkers that accepted a wrong output: {bench.blind}", file=sys.stderr)
    meta = machine_meta()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "op_seconds": {f"{kind}/{config}": v for (kind, config), v in bench.samples.items()},
        "setup_times": setup_times,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "per_layer": {k: v for k, (v, _) in per_layer.items()},
        "meta": meta,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    shown = per_layer if args.trace else end_to_end
    print("meta " + json.dumps(meta))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
            }
        )
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "sigforge" / "__init__.py").is_file():
        print(f"error: sigforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
