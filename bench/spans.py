"""In-process spans around the program's public entry points.

The benchmark wraps module attributes of the imported ``twinwidth`` package;
nothing under ``src/`` changes.  A function is wrapped in every module
namespace that holds it (``fologic.condense`` as well as ``ilrep.condense``),
so calls between modules are seen too.  Only public entry points get a span;
per-element helpers such as ``Graph.has_edge`` are never wrapped.  A call
made while a span of the same name is open (recursion, or one extractor
calling another) runs unwrapped, so it is part of the outer span.
"""

from __future__ import annotations

import functools
import sys
import time

# (home module, attribute, span name, result hook)
_SPANS = [
    ("solver", "twinwidth_exact", "solver.twinwidth_exact", "nodes"),
    ("solver", "twinwidth_greedy", "solver.twinwidth_greedy", None),
    ("solver", "verify_sequence", "solver.verify_sequence", None),
    ("trimatrix", "matrix_twinwidth_exact", "trimatrix.matrix_twinwidth_exact", "matrix_nodes"),
    ("trimatrix", "find_mixed_minor", "trimatrix.find_mixed_minor", "found"),
    ("ilrep", "decode", "ilrep.decode", None),
    ("ilrep", "build_ilmatrix", "ilrep.build_ilmatrix", None),
    ("ilrep", "condense", "ilrep.condense", None),
    ("fologic", "rewrite", "fologic.rewrite", None),
    ("fologic", "evaluate", "fologic.evaluate", None),
    ("fologic", "modelcheck_pipeline", "fologic.modelcheck_pipeline", None),
    ("fologic", "modelcheck_direct", "fologic.modelcheck_direct", None),
    ("obstruction", "extract_perm_submatrix", "obstruction.extract", None),
    ("obstruction", "circle_permutation_witness", "obstruction.extract", None),
    ("obstruction", "interval_exposure_witness", "obstruction.extract", None),
    ("obstruction", "check_exposes", "obstruction.check_exposes", None),
    ("perturb", "build_circle_gadget", "perturb.build_gadget", None),
    ("perturb", "build_interval_gadget", "perturb.build_gadget", None),
    ("perturb", "verify_robustness_circle", "perturb.verify_robustness", "scripts"),
    ("perturb", "verify_robustness_interval", "perturb.verify_robustness", "scripts"),
    ("perturb", "find_homogeneous_set", "perturb.find_homogeneous_set", None),
    ("perturb", "apply_perturbation", "perturb.apply_perturbation", None),
    ("graphs", "is_isomorphic", "graphs.is_isomorphic", None),
    ("graphs", "sequence_width", "graphs.sequence_width", None),
    # load: every text parser
    ("graphs", "graph_from_text", "graphs.graph_from_text", None),
    ("graphs", "sequence_from_text", "graphs.sequence_from_text", None),
    ("trimatrix", "matrix_from_text", "trimatrix.matrix_from_text", None),
    ("ilrep", "intervals_from_text", "ilrep.intervals_from_text", None),
    ("ilrep", "chords_from_text", "ilrep.chords_from_text", None),
    ("fologic", "parse_formula", "fologic.parse_formula", None),
    ("cli", "run", "cli.run", None),
]

LOAD_SPANS = (
    "graphs.graph_from_text",
    "graphs.sequence_from_text",
    "trimatrix.matrix_from_text",
    "ilrep.intervals_from_text",
    "ilrep.chords_from_text",
    "fologic.parse_formula",
)


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str, hook: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            tracer.spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                _HOOKS[hook](tracer, result)
            return result

        return wrapper

    def wrap_unify(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count("ilrep.unify.calls")
            tracer.count("ilrep.unify.legal", int(result[1]))
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + end - start
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out


_HOOKS = {
    "nodes": lambda t, r: t.count("solver.nodes_explored", r.nodes_explored),
    "matrix_nodes": lambda t, r: t.count("trimatrix.matrix_nodes_explored", r.nodes_explored),
    "found": lambda t, r: t.count("trimatrix.find_mixed_minor.found", int(r is not None)),
    "scripts": lambda t, r: t.count("perturb.scripts_tested", r.scripts_tested),
}


class Instrumentation:
    """Installs a tracer's wrappers into every twinwidth namespace, and removes them."""

    def __init__(self) -> None:
        self.swapped: list[tuple[object, str, object]] = []

    def install(self, tracer: Tracer) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name == "twinwidth" or name.startswith("twinwidth.")]
        targets = []
        for home, attr, span, hook in _SPANS:
            fn = getattr(sys.modules[f"twinwidth.{home}"], attr)
            targets.append((fn, tracer.wrap(fn, span, hook)))
        unify = sys.modules["twinwidth.ilrep"].unify
        targets.append((unify, tracer.wrap_unify(unify)))
        gadget = sys.modules["twinwidth.perturb"].IntervalGadget
        self._swap(gadget, "materialize", tracer.wrap(gadget.materialize, "perturb.build_gadget", None))
        for fn, wrapper in targets:
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._swap(module, name, wrapper)

    def _swap(self, owner, name: str, value) -> None:
        self.swapped.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, original in reversed(self.swapped):
            setattr(owner, name, original)
        self.swapped.clear()
