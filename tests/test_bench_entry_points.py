"""Every package name that ``bench/spans.py`` wraps by name still exists, so a
rename shows in the tests, not first when the benchmark runs."""

import importlib
import importlib.util
from pathlib import Path


def test_bench_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", Path(__file__).parents[1] / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # Instrumentation.install wraps these two besides the _SPANS entries
    targets = [(home, attr) for home, attr, *_ in spans._SPANS] + [("ilrep", "unify"), ("perturb", "IntervalGadget.materialize")]
    assert ("graphs", "is_isomorphic") in targets and ("solver", "verify_sequence") in targets
    missing = []
    for home, dotted in targets:
        obj = importlib.import_module(f"twinwidth.{home}")
        for attr in dotted.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append((home, dotted))
    assert missing == []
