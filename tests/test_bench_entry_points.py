"""What the benchmark relies on in the package still exists: every name that
``bench/spans.py`` wraps, and every command line that ``bench/workloads.py``
sends, so a rename or a narrowed option shows in the tests, not first when
the benchmark runs."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

from twinwidth.cli import build_parser

BENCH = Path(__file__).parents[1] / "bench"


def load_bench_module(name: str, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports oracle as a top-level module
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_bench_span_targets_resolve(monkeypatch):
    spans = load_bench_module("spans", monkeypatch)
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


def test_bench_command_lines_parse(monkeypatch, tmp_path):
    workloads = load_bench_module("workloads", monkeypatch)
    parser = build_parser()
    commands = set()
    for workload in workloads.WORKLOADS:
        (tmp_path / workload).mkdir()
        for op in workloads.Stream(workload, 1, tmp_path / workload).ops():
            parser.parse_args(op.argv)  # a usage error exits 2 and fails the test
            commands.add(tuple(op.argv[:2]))
            if op.followup:
                # the tww verify that replays a solver's sequence
                solved = workloads.Result(0, json.dumps({"value": 0, "sequence": []}), "")
                follow = op.followup(solved)
                parser.parse_args(follow.argv)
                commands.add(tuple(follow.argv[:2]))
    assert ("tww", "verify") in commands and ("generate", "hplus-interval") in commands
