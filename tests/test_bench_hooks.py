"""The benchmark's tracer wraps ratejump functions by module attribute name
(``bench/tracing.py``, ``TARGETS``).  A rename inside ``src/`` would break
``bench/run.py --trace 1`` without failing any other test; these catch it."""

import importlib.util
import pathlib
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_resolves_to_a_callable(tracing):
    assert tracing.TARGETS
    for owner, attr, layer, note in tracing.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"
        assert layer in tracing.LAYERS
        assert note is None or callable(note)


def test_install_then_uninstall_restores_the_originals(tracing):
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    restored = [getattr(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    assert all(r is o for r, o in zip(restored, originals))
