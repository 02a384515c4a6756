"""Every name the benchmark tracer wraps still exists.

``perfbench/tracing.py`` wraps fedzsl attributes from outside and reads a
hook whose name no longer resolves as 0 rather than failing the run, so a
rename would silently zero its per-layer metrics.  This test loads the
tracer by path, without importing the rest of the benchmark, and resolves
each hook the way ``Tracer.install`` does.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HOOKS = load_tracing().HOOKS


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _ in HOOKS], ids=[f"{m}.{a}" for m, a, _ in HOOKS]
)
def test_hook_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        assert owner is not None, f"{module_name}.{attr}: '{part}' is missing"
    assert callable(getattr(owner, leaf, None)), f"{module_name}.{attr} is missing"


def test_every_span_name_is_hooked_or_derived():
    # The span totals read only span names that some hook records.
    tracing = load_tracing()
    recorded = {span for _, _, span in tracing.HOOKS}
    for metric, (span, _) in tracing._SPAN_TOTALS.items():
        assert span in recorded, metric
