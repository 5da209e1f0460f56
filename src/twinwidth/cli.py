"""Command-line surface.

Batch, non-interactive: each invocation runs one command and prints text (or
JSON with --json) to stdout.  Domain errors, including exceeded caps, exit
with code 1 and a diagnostic on stderr; usage errors exit with code 2.  Each
action is a subparser that declares only the options it reads, so the parser
rejects any other; only rules that depend on another option's value are
checked by hand.

File formats: graphs ``.g``, intervals ``.ivl``, chord diagrams ``.chd``,
matrices ``.mat``, formulas ``.fo`` (S-expressions), contraction sequences
``.seq`` with lines ``c <u> <v> <merged>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import fologic, graphs, ilrep, obstruction, perturb, solver, trimatrix
from .errors import DomainError


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc


def _emit_json(payload: dict) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline to stdout, byte for byte.

    With ``indent`` set, CPython's ``json`` always uses its pure-Python
    encoder, whose chunk list for a large graph costs more time and memory
    than the graph.  So the object is written one top-level key at a time.
    A value is dumped on its own and indented one more level after each
    newline, which is exact because JSON escapes every newline inside a
    string.  A nonempty list of strings, or a ``map`` yielding strings, is
    written one item per write, so a ``map`` is never held whole; a
    ``graphs.Graph`` value stands for that graph's sorted edge list and is
    written one ``graphs.edge_rows`` row at a time.  Both encode each string
    once by the string encoder ``json.dumps`` uses.
    """
    out = sys.stdout
    sep = "{\n  "
    for key, value in payload.items():
        out.write(f"{sep}{encode_basestring_ascii(key)}: ")
        sep = ",\n  "
        if isinstance(value, map) or (isinstance(value, list) and value and all(type(item) is str for item in value)):
            lead = "[\n    "
            for item in value:
                out.write(lead + encode_basestring_ascii(item))
                lead = ",\n    "
            out.write("[]" if lead == "[\n    " else "\n  ]")
            continue
        if not isinstance(value, graphs.Graph):
            out.write(json.dumps(value, indent=2).replace("\n", "\n  "))
            continue
        names = list(map(encode_basestring_ascii, value.names))
        lead = "[\n    "
        for name, ranks in zip(names, graphs.edge_rows(value)):
            if ranks:
                head = f"[\n      {name},\n      "
                out.write(lead + head + f"\n    ],\n    {head}".join(map(names.__getitem__, ranks)) + "\n    ]")
                lead = ",\n    "
        out.write("\n  ]" if any(value.rows) else "[]")
    out.write("{}\n" if not payload else "\n}\n")


def _parse_pi(text: str) -> tuple[int, ...]:
    try:
        word = tuple(int(x) for x in text.split())
    except ValueError as exc:
        raise DomainError(f"--pi must be space-separated integers, got {text!r}") from exc
    return graphs.check_permutation(word)


def _load_rep(args) -> ilrep.IntervalLikeRep:
    if args.intervals:
        intervals = ilrep.intervals_from_text(_read(args.intervals))
        kind = args.kind or ilrep.INTERVAL
        return ilrep.rep_from_intervals(intervals, kind)
    rep = ilrep.rep_from_chords(ilrep.chords_from_text(_read(args.chords)))
    if args.kind and args.kind != ilrep.OVERLAP:
        raise DomainError("chord diagrams always decode as overlap graphs")
    return rep


def _emit_graph(args, g: graphs.Graph, extra: dict | None = None) -> None:
    """The graph payload plus ``extra`` (``_emit_json`` writes g as its sorted edge list), or ``.g`` text."""
    if args.json:
        _emit_json({"vertices": list(g.names), "edges": g, **(extra or {})})
    else:
        sys.stdout.writelines(graphs.graph_lines(g, **_given(args, "name")))


def _emit_solve(args, res) -> int:
    if isinstance(res, solver.SolveResult):
        seq = [[s.u, s.v, s.merged] for s in res.sequence]
    else:
        seq = [list(step) for step in res.sequence]
    if args.json:
        _emit_json({"value": res.value, "optimal": res.optimal, "sequence": seq, "nodes_explored": res.nodes_explored})
    else:
        print(f"value {res.value}")
        print(f"optimal {str(res.optimal).lower()}")
        print(f"nodes_explored {res.nodes_explored}")
        for step in seq:
            print("c " + " ".join(str(x) for x in step))
    return 0


# ---------------------------------------------------------------------------
# command handlers


def _cmd_decode(args) -> int:
    _emit_graph(args, ilrep.decode(_load_rep(args)))
    return 0


def _cmd_ilmatrix(args) -> int:
    rep = _load_rep(args)
    pairs, rows = ilrep.ilmatrix_rows(rep)  # each row is built as it is written
    keys = list(map(ilrep.pair_name, pairs))
    trimatrix.check_keys(keys, rep.ends)
    if args.json:
        _emit_json({"rows": keys, "cols": list(rep.ends), "entries": map(trimatrix.row_text, rows)})
    else:
        sys.stdout.writelines(trimatrix.matrix_lines(keys, rep.ends, rows))
    return 0


def _cmd_condense(args) -> int:
    rep = _load_rep(args)
    condensed = ilrep.condense(rep)
    intervals = ilrep.rep_to_intervals(condensed)
    if args.json:
        _emit_json(
            {
                "kind": condensed.kind,
                "ends": len(condensed.ends),
                "intervals": [[i, l, r] for i, l, r in intervals],
            }
        )
    else:
        print(ilrep.intervals_to_text(intervals), end="")
    return 0


def _cmd_mixed_minor(args) -> int:
    m = trimatrix.matrix_from_text(_read(args.matrix))
    witness = trimatrix.find_mixed_minor(m, args.k)
    if args.json:
        _emit_json({"found": witness is not None, "witness": witness.to_json() if witness else None})
    elif witness is None:
        print("none")
    else:
        rows = " | ".join(",".join(b) for b in witness.division.row_blocks)
        cols = " | ".join(",".join(b) for b in witness.division.col_blocks)
        print(f"{args.k}-mixed minor found")
        print(f"row blocks: {rows}")
        print(f"col blocks: {cols}")
    return 0


def _given(args, *names) -> dict:
    """The options among ``names`` that were given; the others keep the callee's default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _reject_ignored(args, names, context: str) -> None:
    """A usage error (exit 2) naming each option in ``names`` that was given."""
    given = ["--" + name.replace("_", "-") for name in _given(args, *names)]
    if given:
        args.usage_error(f"{context} does not take {', '.join(given)}")


def _cmd_tww_exact(args) -> int:
    if args.matrix:
        m = trimatrix.matrix_from_text(_read(args.matrix))
        return _emit_solve(args, trimatrix.matrix_twinwidth_exact(m, **_given(args, "symmetric", "cap")))
    if args.symmetric:  # contracting rows and columns together is a matrix option
        args.usage_error("argument --symmetric: not allowed with argument --graph")
    return _emit_solve(args, solver.twinwidth_exact(graphs.graph_from_text(_read(args.graph)), **_given(args, "cap")))


def _cmd_tww_greedy(args) -> int:
    return _emit_solve(args, solver.twinwidth_greedy(graphs.graph_from_text(_read(args.graph))))


def _cmd_tww_verify(args) -> int:
    g = graphs.graph_from_text(_read(args.graph))
    seq = graphs.sequence_from_text(_read(args.seq))
    _emit_json({"verified": solver.verify_sequence(g, seq, args.claim)})
    return 0


def _cmd_extract(args) -> int:
    word = _parse_pi(args.pi)
    rep = _load_rep(args)
    if args.what == "perm-submatrix":
        witness = obstruction.extract_perm_submatrix(ilrep.build_ilmatrix(rep), word)
    elif args.what == "circle-witness":
        witness = obstruction.circle_permutation_witness(rep, word)
    else:
        witness = obstruction.interval_exposure_witness(rep, word)
    payload = witness.to_json()
    if args.json:
        _emit_json(payload)
    else:
        print(f"type {payload['type']}")
        print(f"permutation {' '.join(str(v) for v in payload['permutation'])}")
        for key in ("rows", "cols", "vertices", "core"):
            if key in payload:
                print(f"{key} {' '.join(payload[key])}")
        print(f"verification {payload['verification']}")
    return 0


def _cmd_generate(args) -> int:
    word = _parse_pi(args.pi)
    if args.what == "permgraph":
        g, extra = graphs.permutation_graph(word), None
    elif args.what == "exposer":
        inst = obstruction.generate_exposer(word)
        g = inst.graph
        extra = {
            "core": list(inst.core),
            "side1": list(inst.side1),
            "side2": list(inst.side2),
            "intervals": [[i, l, r] for i, l, r in inst.intervals],
        }
    elif args.what == "hplus-circle":
        gadget = perturb.build_circle_gadget(word, **_given(args, "r", "exponent", "cap"))
        g = gadget.graph
        extra = {"power_permutation": list(gadget.word), "exponent": gadget.orders.exponent}
    else:  # hplus-interval; --cap bounds the materialized graph, not the lazy gadget
        gadget = perturb.build_interval_gadget(word, **_given(args, "r", "exponent", "u_power"))
        inst = gadget.materialize(**_given(args, "cap"))
        g = inst.graph
        extra = {
            "core_vertices": gadget.size,
            "u_power": gadget.u_power,
            "z_power": gadget.z_power,
        }
    _emit_graph(args, g, extra)
    return 0


def _cmd_perturb(args) -> int:
    g = graphs.graph_from_text(_read(args.graph))
    script = []
    if args.sets:
        for part in args.sets.split(";"):
            part = part.strip()
            if part:
                script.append([v.strip() for v in part.split(",") if v.strip()])
    _emit_graph(args, perturb.apply_perturbation(g, script))
    return 0


def _cmd_robustness(args) -> int:
    if args.case == "circle":
        _reject_ignored(args, ("u_power",), "robustness --case circle")
        build, verify = perturb.build_circle_gadget, perturb.verify_robustness_circle
    else:
        build, verify = perturb.build_interval_gadget, perturb.verify_robustness_interval
    _reject_ignored(args, ("budget",) if args.mode == "sampled" else ("samples",), f"robustness --mode {args.mode}")
    word = _parse_pi(args.pi)
    if args.mode == "sampled" and args.seed is None:
        raise DomainError("sampled mode needs --seed for reproducibility")
    # an option left out keeps the builder's or verifier's own default
    gadget = build(word, args.r, **_given(args, "exponent", "u_power", "cap"))
    report = verify(gadget, mode=args.mode, seed=args.seed, **_given(args, "samples", "budget"))
    _emit_json(report.to_json())
    return 0 if not report.failures else 1


def _cmd_fo_check(args) -> int:
    rep = _load_rep(args)
    formula = fologic.parse_formula(_read(args.formula))
    if args.direct:
        value = fologic.modelcheck_direct(rep, formula, budget=args.budget)
    else:
        value = fologic.modelcheck_pipeline(rep, formula, budget=args.budget)
    _emit_json({"value": value})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_rep_inputs(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--intervals", help="interval file (.ivl)")
    source.add_argument("--chords", help="chord diagram file (.chd)")
    p.add_argument("--kind", choices=ilrep.KINDS, help="decoding kind (default: interval for .ivl, overlap for .chd)")


def _add_graph_output(p: argparse.ArgumentParser) -> None:
    output = p.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true")
    output.add_argument("--name", help="graph name in the .g text (default: g)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="twinwidth", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="decode a representation into a graph")
    _add_rep_inputs(p)
    _add_graph_output(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("ilmatrix", help="emit the representation matrix")
    _add_rep_inputs(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ilmatrix)

    p = sub.add_parser("condense", help="condense a representation")
    _add_rep_inputs(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_condense)

    p = sub.add_parser("mixed-minor", help="search a matrix for a k-mixed minor")
    p.add_argument("--matrix", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_mixed_minor)

    p = sub.add_parser("tww", help="twin-width: exact, greedy, or verify a sequence")
    tww = p.add_subparsers(dest="action", required=True)
    p = tww.add_parser("exact", help="exact twin-width of a graph or a matrix, with a sequence")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph")
    source.add_argument("--matrix")
    p.add_argument("--symmetric", action="store_true", default=None, help="matrix: contract rows and columns together")
    p.add_argument("--cap", type=int, help="size cap (default: the solver's own)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tww_exact, usage_error=p.error)
    p = tww.add_parser("greedy", help="greedy upper bound, with a sequence")
    p.add_argument("--graph", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tww_greedy)
    p = tww.add_parser("verify", help="check a contraction sequence and its width (JSON)")
    p.add_argument("--graph", required=True)
    p.add_argument("--seq", required=True, help="contraction sequence file")
    p.add_argument("--claim", type=int, required=True, help="claimed width")
    p.set_defaults(func=_cmd_tww_verify)

    p = sub.add_parser("extract", help="extract an obstruction certificate")
    p.add_argument("what", choices=("perm-submatrix", "circle-witness", "exposure"))
    _add_rep_inputs(p)
    p.add_argument("--pi", required=True, help='permutation, e.g. "3 1 2"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("generate", help="generate graphs and gadgets")
    generate = p.add_subparsers(dest="what", required=True)
    for what in ("permgraph", "exposer", "hplus-circle", "hplus-interval"):
        p = generate.add_parser(what)
        p.add_argument("--pi", required=True)
        _add_graph_output(p)
        if what.startswith("hplus"):
            p.add_argument("-r", type=int, help="perturbation budget (default: the builder's own, 0)")
            p.add_argument("--exponent", type=int, help="override the power exponent")
            p.add_argument("--cap", type=int, help=f"vertex cap (default: the builder's own, {perturb.DEFAULT_GADGET_CAP})")
        if what == "hplus-interval":
            p.add_argument("--u-power", type=int, help="inner power (default: the builder's own, 4)")
        p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("perturb", help="apply a perturbation script to a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--sets", default="", help='subsets, e.g. "a,b,c;b,d"')
    _add_graph_output(p)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("robustness", help="verify gadget robustness under perturbations")
    p.add_argument("--case", choices=("circle", "interval"), required=True)
    p.add_argument("--pi", required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=int, help="sampled: scripts drawn (default: the verifier's own, 1000)")
    p.add_argument("--seed", type=int)
    p.add_argument("--exponent", type=int)
    p.add_argument("--u-power", type=int, help="interval: inner power (default: the builder's own, 4)")
    p.add_argument("--cap", type=int, help="gadget size cap (default: the builder's own)")
    p.add_argument("--budget", type=int, help="exhaustive: script budget (default: the verifier's own, 2^20)")
    p.set_defaults(func=_cmd_robustness, usage_error=p.error)

    p = sub.add_parser("fo-check", help="first-order model checking on a representation")
    _add_rep_inputs(p)
    p.add_argument("--formula", required=True, help="formula file (.fo)")
    p.add_argument("--budget", type=int, default=fologic.DEFAULT_EVAL_BUDGET)
    p.add_argument("--direct", action="store_true", help="evaluate on the decoded graph instead of the matrix pipeline")
    p.set_defaults(func=_cmd_fo_check)

    return top


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output pipe closed", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
