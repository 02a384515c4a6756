"""Every name the benchmark tracer wraps still exists.

``perfbench/tracing.py`` wraps fedzsl attributes from outside and reads a
hook whose name no longer resolves as 0 rather than failing the run, so a
rename would silently zero its per-layer metrics.  This test loads the
tracer by path, without importing the rest of the benchmark, and resolves
each hook the way ``Tracer.install`` does.  The counts the tracer reads
from a call's arguments or result (evaluated rows, left-inverse pairs,
glasso sweeps, theory violations) are checked on real calls, since a
changed signature would silently zero them too.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import fedzsl
from fedzsl.dataset import SyntheticSpec, generate_synthetic, split_train_test
from fedzsl.model import ATTRIBUTE_BASED, init_params

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


def test_spans_record_the_counts_the_layer_metrics_read():
    # Each count comes from _span_info reading the wrapped call's arguments
    # or result; a changed signature or result type would read as no info.
    spec = SyntheticSpec(num_seen=6, num_unseen=2, d_a=6, d_v=9, samples_per_class=10, group_count=3)
    ds, attrs = generate_synthetic(spec, seed=0)
    train, test_seen, test_unseen = split_train_test(ds, seed=0)
    params = init_params(9, 6, num_seen=6, mode=ATTRIBUTE_BASED, seed=0)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        fedzsl.evaluate(params, test_seen, test_unseen, attrs, train.split)
        report = fedzsl.build_theory_report(params, train.features, train.labels, attrs)
        sim = fedzsl.graphical_lasso(fedzsl.sample_covariance(attrs))
        suite = fedzsl.run_check_suite(trials=20)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    infos: dict[str, list[dict]] = {}
    for name, _, _, _, info in tracer.spans:
        infos.setdefault(name, []).append(info)
    assert infos["evaluation.evaluate"] == [
        {"rows": test_seen.num_samples + test_unseen.num_samples}
    ]
    n = train.num_samples
    pairs = [info["pairs"] for info in infos["theory.left_inverse"]]
    assert pairs[0] == n * (n - 1) // 2 and len(pairs) > 1
    assert infos["glasso.solve"] == [{"sweeps": sim.sweeps, "converged": sim.converged}]
    assert infos["theory.report"] == [{"violations": sum(report.violations.values())}]
    assert infos["theory.check_suite"] == [{"violations": sum(r.violations for r in suite)}]
