"""The names the benchmark in perfbench/ reaches into sigforge for must exist.

``perfbench/tracing.py`` wraps the functions listed in its ``TRACED`` table
and the ``BinaryField`` methods in ``FIELD_METHODS``; ``perfbench/run.py``
calls the public API below.  A rename in sigforge then fails here rather
than only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sigforge.binary_field import BinaryField

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# (module, attribute) that perfbench/run.py calls
RUN_CALLS = (
    ("cryptosystem", "generate_key"),
    ("cryptosystem", "sign_message"),
    ("cryptosystem", "verify_message"),
    ("numeric", "RngHandle"),
    ("registry", "get_curve"),
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = load_tracing()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in TRACING_MODULE.TRACED] + list(RUN_CALLS))
def test_name_resolves_on_sigforge(module, attr):
    assert callable(getattr(importlib.import_module("sigforge." + module), attr))


@pytest.mark.parametrize("method", TRACING_MODULE.FIELD_METHODS)
def test_traced_field_method_exists(method):
    assert callable(getattr(BinaryField, method))
