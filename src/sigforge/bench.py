"""Benchmark harness: time keygen, sign and verify for a list of configurations.

Each configuration is timed single-threaded with a monotonic wall clock; the
reported figure is the median over the requested repeats.  Results are
emitted as CSV with columns

    algorithm,form,curve,key_size,hash,keygen_s,sign_s,verify_s

where RSA/DSA rows carry "-" in the form and curve columns.  A curve's first row
first times the lookup and G's table build: cold start stays out of medians and CSV.
"""

import time
from typing import NamedTuple, Optional

from .curves import scalar_mul
from .numeric import RngHandle
from .registry import get_curve
from .schemes import get_scheme

BENCH_MESSAGE = bytes(range(256)) * 4  # fixed 1 KiB message


class BenchConfig(NamedTuple):
    algorithm: str
    bits: Optional[int] = None  # rsa/dsa modulus size
    curve: Optional[str] = None  # ecdsa/eddsa curve name


class BenchRecord(NamedTuple):
    algorithm: str
    form: str
    curve: str
    key_size: int
    hash_name: str
    keygen_s: float
    sign_s: float
    verify_s: float
    first_use_s: Optional[float] = None  # on the run's first row of a curve


DEFAULT_SUITE = (
    BenchConfig("rsa", bits=3072),
    BenchConfig("dsa", bits=3072),
    BenchConfig("ecdsa", curve="secp256k1"),
    BenchConfig("ecdsa", curve="p256"),
    BenchConfig("eddsa", curve="ed25519"),
)

# desk-scale suite: RSA capped at 3072 and DSA at 2048 so it finishes in
# minutes, plus curve rows across all three forms and cross-form combinations
PAPER_SMALL_SUITE = (
    BenchConfig("rsa", bits=1024),
    BenchConfig("rsa", bits=2048),
    BenchConfig("rsa", bits=3072),
    BenchConfig("dsa", bits=1024),
    BenchConfig("dsa", bits=2048),
    BenchConfig("ecdsa", curve="secp256k1"),
    BenchConfig("ecdsa", curve="p256"),
    BenchConfig("ecdsa", curve="p384"),
    BenchConfig("ecdsa", curve="p521"),
    BenchConfig("ecdsa", curve="ed25519"),
    BenchConfig("ecdsa", curve="k163"),
    BenchConfig("eddsa", curve="ed25519"),
    BenchConfig("eddsa", curve="numsp384t1"),
    BenchConfig("eddsa", curve="e521"),
    BenchConfig("eddsa", curve="secp256k1"),
    BenchConfig("eddsa", curve="k163"),
)

SUITES = {"default": DEFAULT_SUITE, "paper-small": PAPER_SMALL_SUITE}


def _timed(fn, repeats):
    import statistics  # only timing needs it, and every CLI process imports this module

    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def bench_one(config: BenchConfig, repeats: int, rng: RngHandle, first_use_s=None) -> BenchRecord:
    scheme = get_scheme(config.algorithm)
    keygen_s, key = _timed(lambda: scheme.keygen(rng, config.bits, config.curve), repeats)
    sign_s, signature = _timed(lambda: scheme.sign(key, BENCH_MESSAGE, rng), repeats)
    verify_s, ok = _timed(lambda: scheme.verify(key, BENCH_MESSAGE, signature), repeats)
    if not ok:
        raise AssertionError(f"benchmark produced an invalid signature for {config}")
    return BenchRecord(
        algorithm=config.algorithm,
        form=key.curve.form if scheme.on_curve else "-",
        curve=key.curve.name if scheme.on_curve else "-",
        key_size=key.key_size,
        hash_name=key.hash_name,
        keygen_s=keygen_s,
        sign_s=sign_s,
        verify_s=verify_s,
        first_use_s=first_use_s,
    )


def run_bench(configs, repeats: int = 5, seed=None, progress=None) -> list:
    """Benchmark every configuration; ``progress`` is an optional callable
    fed each finished BenchRecord."""
    if repeats < 3:
        raise ValueError("repeats must be >= 3")
    records, used = [], set()
    for index, config in enumerate(configs):
        # per-config stream: one row's draws never shift another row's keys
        rng = RngHandle(None if seed is None else seed + index)
        first_use_s = None
        if config.curve is not None and config.curve not in used:
            used.add(config.curve)
            # the lookup and G's fixed-base tables; draws nothing from rng
            t0 = time.perf_counter()
            curve = get_curve(config.curve)
            scalar_mul(1, curve.g, curve)
            first_use_s = time.perf_counter() - t0
        record = bench_one(config, repeats, rng, first_use_s)
        records.append(record)
        if progress is not None:
            progress(record)
    return records


def emit_csv(records) -> str:
    """CSV text for the records: header plus one row each, times to 4 decimals."""
    lines = ["algorithm,form,curve,key_size,hash,keygen_s,sign_s,verify_s"]
    for r in records:
        lines.append(
            f"{r.algorithm},{r.form},{r.curve},{r.key_size},{r.hash_name},"
            f"{r.keygen_s:.4f},{r.sign_s:.4f},{r.verify_s:.4f}"
        )
    return "\n".join(lines) + "\n"
