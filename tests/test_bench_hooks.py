"""The benchmark's trace hooks still find what they wrap in ``src/``.

A traced run wraps each of ``benchmarks/tracer.py``'s entry points; one
that has moved or been renamed is recorded as absent and its per-layer
metric silently reads ``None``. The tracer is imported here and only read.
"""

import importlib.util
import os

import protonorm.tensor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "protonorm")
_spec = importlib.util.spec_from_file_location(
    "bench_tracer", os.path.join(ROOT, "benchmarks", "tracer.py")
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_traced_entry_point_resolves_in_src():
    assert os.path.dirname(os.path.abspath(protonorm.tensor.__file__)) == SRC
    missing = [
        (span, module, path)
        for span, module, path in tracer.ENTRY_POINTS
        if tracer._resolve(module, path) is None
    ]
    assert missing == []


def test_grad_mode_flag_the_tracer_reads_exists():
    # the tracer splits ``Encoder.encode`` into forward and forward_nograd by it
    assert isinstance(protonorm.tensor._grad_enabled, bool)
