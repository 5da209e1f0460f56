"""Rebuild manifest.json: the expected answers of every pooled instance.

Run from the repository root:

    python3 bench/make_manifest.py

The answers are computed once with the library in ``src/`` and committed;
a benchmark run then compares the program against them.  Each exact value
is also replayed through the benchmark's own trigraph replay, and every
above-cap model is checked to trigger the isomorphism fallback, before it
is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from twinwidth import fologic, graphs, ilrep, solver, trimatrix  # noqa: E402


def lattice() -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for (n, p), i in workloads.LATTICE_POOL:
        cls = f"gnp-{n}-{p}" if p is not None else "gnp-10"
        dens = p if p is not None else (0.2, 0.8)[i % 2]
        out.setdefault(cls, []).append(graph_value(*workloads.gnp_pool(n, dens, i)))
    for name, (nr, nc, _, symmetric) in workloads.MATRIX_CLASSES.items():
        values = []
        for i in range(workloads.POOL_SIZE):
            rows = workloads.matrix_pool(name, i)
            keys_r = [f"r{k}" for k in range(nr)]
            keys_c = keys_r if symmetric else [f"c{k}" for k in range(nc)]
            text = f"matrix {nr} {nc}\n{' '.join(keys_r)}\n{' '.join(keys_c)}\n" + "\n".join("".join(r) for r in rows) + "\n"
            res = trimatrix.matrix_twinwidth_exact(trimatrix.matrix_from_text(text), symmetric=symmetric)
            assert res.optimal and oracle.matrix_replay_width(text, res.sequence, symmetric) == res.value
            values.append(res.value)
        out[name] = values
    return out


def graph_value(vertices, edges) -> int:
    res = solver.twinwidth_exact(graphs.Graph.build(vertices, edges))
    steps = [(s.u, s.v, s.merged) for s in res.sequence]
    assert oracle.replay_width(vertices, edges, steps) == res.value
    return res.value


def pipeline() -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for cls in workloads.FO_CLASSES:
        entries = []
        for i in range(workloads.POOL_SIZE):
            text, formula = workloads.fo_pool_entry(cls, i)
            if cls == "fo-chords":
                rep = ilrep.rep_from_chords(ilrep.chords_from_text(text))
            else:
                kind = "overlap" if cls == "fo-overlap" else "interval"
                rep = ilrep.rep_from_intervals(ilrep.intervals_from_text(text), kind)
            entry = {"fo": fologic.modelcheck_direct(rep, fologic.parse_formula(workloads.FORMULAS[formula]))}
            if cls in ("fo-interval", "fo-overlap"):
                matrix = ilrep.build_ilmatrix(rep).matrix
                for k in (2, 3):
                    entry[f"mixed{k}"] = trimatrix.find_mixed_minor(matrix, k) is not None
            entries.append(entry)
        out[cls] = entries
    return out


def main() -> None:
    manifest = {"pool_size": workloads.POOL_SIZE, "lattice": lattice(), "pipeline": pipeline()}
    workloads.MANIFEST_PATH.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.MANIFEST_PATH}")


if __name__ == "__main__":
    main()
