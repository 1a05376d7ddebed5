"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/layertrace.py`` patches the library's classes (``QuadScalar``,
``RatFunc``, ``CoeffField``) and functions by name, so a library change
that deletes one of them fails here, with the rest of the tests.
"""

import importlib.util
import sys
from pathlib import Path

from metallifts import report
from metallifts.cli import load_builtin

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_tracer(monkeypatch):
    """perfbench/layertrace.py as a module, read without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layertrace_read_only", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracing_a_builtin_leaves_its_structured_report_unchanged(monkeypatch):
    layertrace = load_tracer(monkeypatch)

    def render():  # through the module attributes, which install rebinds
        sc = load_builtin("example_4_1")
        return report.render_structured(report.run_scenario(sc), sc.params)

    plain = render()
    tracer = layertrace.Tracer()
    inst = layertrace.install(tracer)
    try:
        traced = render()
    finally:
        inst.restore()
    assert len(tracer.spans) > 0
    assert traced == plain
