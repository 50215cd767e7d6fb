"""The benchmark reads ratejump by module attribute name: its tracer wraps
functions (``bench/tracing.py``, ``TARGETS``), and its workloads and
reference timings call them (``harness.get_preset``,
``detector._packing_indices``).  A rename or deletion inside ``src/`` would
break ``bench/run.py`` or ``bench/reference.py`` without failing any other
test; these catch it."""

import ast
import importlib.util
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


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


def _ratejump_reads(path):
    """(module, attribute) for every ``<module>.<name>`` read in ``path`` on a
    module bound by ``from ratejump import ...``, and (module, name) for each
    ``from ratejump.<module> import name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    modules, reads = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ratejump":
            modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ratejump."):
            reads |= {(node.module.split(".", 1)[1], alias.name) for alias in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.add((node.value.id, node.attr))
    return reads


def test_every_ratejump_name_the_benchmark_reads_resolves():
    reads = set().union(*map(_ratejump_reads, sorted(BENCH.glob("*.py"))))
    # the benchmark's reads that this check exists for, so a parser that
    # finds nothing fails
    assert {("harness", "get_preset"), ("detector", "_packing_indices"),
            ("poisson", "preset_rate_spec")} <= reads
    missing = sorted(f"ratejump.{module}.{name}" for module, name in reads
                     if not hasattr(importlib.import_module(f"ratejump.{module}"), name))
    assert not missing, f"names bench/ reads that ratejump no longer has: {missing}"


def test_the_fig2_scaled_scenario_keeps_what_the_benchmark_reads():
    from ratejump.harness import get_preset, heatmap_spec_from_preset

    scenario = heatmap_spec_from_preset(get_preset("fig2-scaled")).scenario
    for name in ("base", "jump", "horizon", "onset_low", "onset_high"):
        assert isinstance(getattr(scenario, name, None), float), name
