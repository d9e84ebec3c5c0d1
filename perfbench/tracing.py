"""Outside-in span tracing of sigforge's public functions.

``Tracer.install`` replaces every module attribute (and every
``BinaryField`` method) that binds one of the traced functions with a
wrapper that records a span: name, start, end and the span that was open
when it was called.  Spans are kept in flat arrays while the run lasts and
written out once at the end; self time is a span's duration minus the
durations of its direct children.
"""

import gzip
import sys
from array import array
from time import perf_counter

# (module, attribute, span name); scalar_mul is split by its point argument
TRACED = (
    ("registry", "get_curve", "registry.get_curve"),
    ("curves", "validate_curve", "registry.validate_curve"),
    ("curves", "scalar_mul", None),
    ("curves", "point_add", "curves.point_add"),
    ("curves", "is_on_curve", "curves.is_on_curve"),
    ("numeric", "mod_exp", "numeric.mod_exp"),
    ("numeric", "is_probable_prime", "numeric.is_probable_prime"),
    ("numeric", "gen_prime", "numeric.gen_prime"),
    ("numeric", "mod_inv", "numeric.mod_inv"),
    ("hashing", "digest_to_int", "hashing.digest_to_int"),
    ("ec_signatures", "ec_keygen", "ec_signatures.ec_keygen"),
    ("ec_signatures", "ecdsa_sign", "ec_signatures.ecdsa_sign"),
    ("ec_signatures", "ecdsa_verify", "ec_signatures.ecdsa_verify"),
    ("ec_signatures", "eddsa_sign", "ec_signatures.eddsa_sign"),
    ("ec_signatures", "eddsa_verify", "ec_signatures.eddsa_verify"),
    ("ff_signatures", "rsa_keygen", "ff_signatures.rsa_keygen"),
    ("ff_signatures", "rsa_sign", "ff_signatures.rsa_sign"),
    ("ff_signatures", "rsa_verify", "ff_signatures.rsa_verify"),
    ("ff_signatures", "dsa_paramgen", "ff_signatures.dsa_paramgen"),
    ("ff_signatures", "dsa_keygen", "ff_signatures.dsa_keygen"),
    ("ff_signatures", "dsa_sign", "ff_signatures.dsa_sign"),
    ("ff_signatures", "dsa_verify", "ff_signatures.dsa_verify"),
    ("keystore", "parse_key", "keystore.parse_key"),
    ("keystore", "parse_signature", "keystore.parse_signature"),
    ("keystore", "render_key", "keystore.render_key"),
    ("keystore", "render_signature", "keystore.render_signature"),
)
FIELD_METHODS = ("mul", "square", "inv")
FIXED_BASE = "curves.scalar_mul.fixed_base"
VAR_BASE = "curves.scalar_mul.var_base"
CLI_MAIN = "cli.cli_main"
CLI_STARTUP = "cli.startup"

SPAN_NAMES = (
    [name for _, _, name in TRACED if name]
    + [FIXED_BASE, VAR_BASE]
    + ["binary_field." + m for m in FIELD_METHODS]
    + [CLI_MAIN, CLI_STARTUP]
)


class Tracer:
    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def _enter(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self._open.append(idx)
        self.start.append(perf_counter())
        self.end.append(0.0)
        return idx

    def _leave(self, idx):
        self.end[idx] = perf_counter()
        self._open.pop()

    def wrap(self, name, fn):
        nid = self.ids[name]

        def traced(*args, **kwargs):
            idx = self._enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(idx)

        return traced

    def wrap_scalar_mul(self, fn):
        fixed, var = self.ids[FIXED_BASE], self.ids[VAR_BASE]

        def traced(k, point, curve):
            idx = self._enter(fixed if point == curve.g else var)
            try:
                return fn(k, point, curve)
            finally:
                self._leave(idx)

        return traced

    def install(self):
        """Wrap the traced functions wherever a loaded sigforge module binds them."""
        modules = [m for n, m in sys.modules.items() if n == "sigforge" or n.startswith("sigforge.")]
        for module_name, attr, name in TRACED:
            fn = getattr(sys.modules["sigforge." + module_name], attr)
            wrapper = self.wrap_scalar_mul(fn) if name is None else self.wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
        field_cls = sys.modules["sigforge.binary_field"].BinaryField
        for method in FIELD_METHODS:
            setattr(field_cls, method, self.wrap("binary_field." + method, getattr(field_cls, method)))

    def totals(self, lo=0, hi=None):
        """{span name: [calls, self seconds]} over spans lo..hi-1 (a whole subtree range)."""
        hi = len(self.name) if hi is None else hi
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for i in range(lo, hi):
            entry = out[SPAN_NAMES[self.name[i]]]
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i - lo]
        return out

    def duration(self, name):
        """Summed wall time of every span with this name."""
        nid = self.ids[name]
        return sum(self.end[i] - self.start[i] for i, n in enumerate(self.name) if n == nid)

    def dump(self, path, proc=0):
        """Append the spans as CSV rows: proc,index,name,start,end,parent."""
        with gzip.open(path, "at", encoding="ascii") as fh:
            for i, nid in enumerate(self.name):
                fh.write(
                    f"{proc},{i},{SPAN_NAMES[nid]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n"
                )

    @classmethod
    def load(cls, path):
        tracer = cls()
        with gzip.open(path, "rt", encoding="ascii") as fh:
            for line in fh:
                _, _, name, start, end, parent = line.rstrip("\n").split(",")
                tracer.name.append(tracer.ids[name])
                tracer.start.append(float(start))
                tracer.end.append(float(end))
                tracer.parent.append(int(parent))
        return tracer
