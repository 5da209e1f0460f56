"""Seeded inputs and the op lists of the four workloads.

A workload is a fixed list of ops that a run repeats, in rounds, for the
length of the run.  The benchmark seed draws everything that varies: graphs
and models of the unpooled classes, vertex, interval and matrix labels,
permutations and sample seeds.  Classes whose checks need an exact
answer (exact twin-width, FO truth, mixed-minor existence) use a small
fixed pool of instances whose answers are committed in ``manifest.json``;
relabelling keeps those answers, so every seed is covered.
``make_manifest.py`` rebuilds the file.

Every op carries its own output check.  Checks read only the files the
benchmark wrote and the op's stdout, through ``oracle``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

WORKLOADS = ("lattice", "gadget", "pipeline", "bulk")
POOL_SIZE = 2  # instances per pooled class, see make_manifest.py
# Known defect: condense, and so the FO pipeline, falls back to an isomorphism
# test capped at 12 vertices whenever a legal unification changes the graph;
# above 12 vertices the op exits 1 with this diagnostic.
ISO_CAP_DEFECT = "error: isomorphism cap 12 exceeded"

MANIFEST_PATH = Path(__file__).with_name("manifest.json")


@dataclass
class Result:
    code: int | str  # exit code, or "traceback" for an uncaught exception in-process
    stdout: str
    stderr: str


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[Result], str | None]
    # stderr prefix of a known defect this op may hit (exit 1)
    defect: str | None = None
    # builds the op that consumes this op's output (tww verify after tww exact)
    followup: Callable[[Result], "Op"] | None = None


def load_manifest() -> dict:
    return json.loads(MANIFEST_PATH.read_text())


# ---------------------------------------------------------------------------
# pool instances (seed-free; the manifest answers are keyed by class and index)


# (n, p) classes of G(n, p) with their pool indices; n = 10 alternates p = 0.2
# and 0.8 by index.  The n = 9, p = 0.5 class has three times the pool.
LATTICE_POOL = [
    ((n, p), i)
    for n, p in [(n, p) for n in (8, 9) for p in (0.2, 0.5, 0.8)] + [(10, None)]
    for i in range(3 * POOL_SIZE if (n, p) == (9, 0.5) else POOL_SIZE)
]
# The graphs a run solves: the whole n = 9, p = 0.5 and n = 10 pools and the
# first instance of every other class.  A round then runs 32 ops (each graph
# solve is followed by its verify), and six of them are the slow exact
# solves of five n = 9, p = 0.5 graphs and the first n = 9, p = 0.2 graph, so
# the 90th percentile falls inside that group, not at its edge.
LATTICE_RUN = [((n, p), i) for (n, p), i in LATTICE_POOL if i == 0 or n == 10 or (n, p) == (9, 0.5)]


def gnp_pool(n: int, p: float, index: int) -> tuple[list[str], set[tuple[str, str]]]:
    rng = random.Random(f"gnp-{n}-{p}-{index}")
    vs = [f"v{i}" for i in range(n)]
    es = {(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    return vs, es


MATRIX_CLASSES = {
    # name: (rows, cols, alphabet, symmetric)
    "mat-5x5": (5, 5, "012", False),
    "mat-4x6": (4, 6, "01", False),
    "sym-5": (5, 5, "01", True),
}


def matrix_pool(name: str, index: int) -> list[list[str]]:
    nr, nc, alphabet, symmetric = MATRIX_CLASSES[name]
    rng = random.Random(f"{name}-{index}")
    if symmetric:
        m = [["0"] * nr for _ in range(nr)]
        for i in range(nr):
            for j in range(i + 1, nr):
                m[i][j] = m[j][i] = rng.choice(alphabet)
        return m
    return [[rng.choice(alphabet) for _ in range(nc)] for _ in range(nr)]


def interval_model(n: int, rng: random.Random, span: int) -> list[tuple[int, int]]:
    """n distinct intervals with integer ends in [0, span + span // 3]."""
    out: dict[tuple[int, int], None] = {}
    while len(out) < n:
        a = rng.randrange(span)
        out.setdefault((a, a + rng.randrange(0, max(2, span // 3))))
    return list(out)


def chord_model(n: int, rng: random.Random) -> list[int]:
    seq = [c for c in range(n) for _ in range(2)]
    rng.shuffle(seq)
    return seq


def fo_model(cls: str, index: int):
    """The model of a pooled pipeline instance: chord sequence or interval list."""
    rng = random.Random(f"{cls}-{index}")
    if cls == "fo-chords":
        return chord_model(10 + index % 3, rng)
    if cls == "abovecap":
        # above the 12-vertex isomorphism cap, and hitting the fallback
        while True:
            n = 13 + rng.randrange(4)
            model = interval_model(n, rng, 2 * n)
            if oracle.has_defect_trigger(oracle.Rep.from_intervals(intervals_text(model, "x"), "interval")):
                return model
    return interval_model(12, rng, 24)


FO_CLASSES = ("fo-interval", "fo-overlap", "fo-chords", "abovecap")

FORMULAS = {
    # no induced C4: universally true on interval graphs, so every assignment is explored
    "c4free": "(not (exists a (exists b (exists c (exists d (and (edge a b) (edge b c) (edge c d) (edge d a)"
    " (not (edge a c)) (not (edge b d)) (not (= a c)) (not (= b d))))))))",
    "p3": "(exists a (exists b (exists c (and (edge a b) (edge b c) (not (edge a c)) (not (= a c))))))",
    "dominating": "(exists x (forall y (or (= x y) (edge x y))))",
    "diameter2": "(forall x (forall y (or (= x y) (edge x y) (exists z (and (edge x z) (edge z y))))))",
}


def fo_pool_entry(cls: str, index: int) -> tuple[str, str]:
    """(input text, formula name) of a pooled FO instance.

    Interval and overlap models get the C4-freeness sentence, which is true
    on every interval graph and so explores every assignment; chord
    diagrams rotate through the short-circuiting sentences.
    """
    model = fo_model(cls, index)
    if cls == "fo-chords":
        formula = ("diameter2", "dominating", "p3")[index % 3]
        return " ".join(f"k{c}" for c in model) + "\n", formula
    return intervals_text(model, "x"), "c4free"


def intervals_text(model, prefix: str) -> str:
    return "".join(f"i {prefix}{i} {a} {b}\n" for i, (a, b) in enumerate(model))


def planted_intervals(p: int) -> str:
    """The planted (2p+1)-mixed-minor representation, as an interval file.

    Same layout as the library's planted instances: spine ends s_i with point
    vertices, a terminator t, then bridges (c_j, d_j); every s_i reaches
    every c_j.
    """
    b = 2 * p
    s = [f"s{i:02d}" for i in range(1, b + 1)]
    right = [name for j in range(1, b + 1) for name in (f"c{j:02d}", f"d{j:02d}")]
    ends = s + ["t"] + right
    pos = {e: i for i, e in enumerate(ends)}
    pairs = {(e, e) for e in s} | {(s[i], s[i + 1]) for i in range(b - 1)} | {(s[-1], "t"), ("t", "t")}
    pairs |= {(si, f"c{j:02d}") for si in s for j in range(1, b + 1)}
    pairs |= {(f"c{j:02d}", f"d{j:02d}") for j in range(1, b + 1)} | {(f"d{j:02d}", f"d{j:02d}") for j in range(1, b + 1)}
    return "".join(f"i {x}-{y} {pos[x]} {pos[y]}\n" for x, y in sorted(pairs, key=lambda q: (pos[q[0]], pos[q[1]])))


# ---------------------------------------------------------------------------
# checks


def _json(res: Result):
    return json.loads(res.stdout)


def check_graph_exact(vertices, edges, expected: int):
    def check(res: Result) -> str | None:
        out = _json(res)
        if out["value"] != expected or out["optimal"] is not True:
            return f"exact value {out['value']} (optimal={out['optimal']}), manifest says {expected}"
        width = oracle.replay_width(vertices, edges, out["sequence"])
        if width != expected:
            return f"sequence replays to width {width}, reported {expected}"
        return None

    return check


def check_graph_greedy(vertices, edges):
    def check(res: Result) -> str | None:
        out = _json(res)
        width = oracle.replay_width(vertices, edges, out["sequence"])
        if width != out["value"]:
            return f"greedy sequence replays to width {width}, reported {out['value']}"
        return None

    return check


def check_verified(res: Result) -> str | None:
    return None if _json(res) == {"verified": True} else f"verify printed {res.stdout.strip()!r}"


def verify_followup(graph_path: str, seq_path: Path):
    def build(res: Result) -> Op:
        out = _json(res)
        seq_path.write_text("".join(f"c {u} {v} {m}\n" for u, v, m in out["sequence"]))
        argv = ["tww", "verify", "--graph", graph_path, "--seq", str(seq_path), "--claim", str(out["value"])]
        return Op("tww-verify", argv, check_verified)

    return build


def check_matrix_exact(text: str, expected: int, symmetric: bool):
    def check(res: Result) -> str | None:
        out = _json(res)
        if out["value"] != expected or out["optimal"] is not True:
            return f"matrix value {out['value']} (optimal={out['optimal']}), manifest says {expected}"
        width = oracle.matrix_replay_width(text, out["sequence"], symmetric)
        if width != expected:
            return f"matrix sequence replays to {width}, reported {expected}"
        return None

    return check


def check_fo(expected: bool, agree: dict, pair_key: str):
    def check(res: Result) -> str | None:
        value = _json(res)["value"]
        if pair_key in agree and agree[pair_key] != value:
            return f"pipeline and --direct disagree ({agree[pair_key]} vs {value})"
        agree[pair_key] = value
        if value != expected:
            return f"fo-check printed {value}, manifest says {expected}"
        return None

    return check


def check_condense(rep: oracle.Rep):
    def check(res: Result) -> str | None:
        return oracle.check_condensed(rep, _json(res)["intervals"])

    return check


def check_mixed_minor(text: str, k: int, expected: bool):
    def check(res: Result) -> str | None:
        out = _json(res)
        if out["found"] != expected:
            return f"mixed-minor found={out['found']}, manifest says {expected}"
        if expected and not oracle.division_is_mixed(text, out["witness"]["rows"], out["witness"]["cols"], k):
            return "returned division is not an all-mixed k-division"
        return None

    return check


def check_perm_submatrix(matrix_text: str, word):
    row_keys, col_keys, body = oracle.parse_matrix(matrix_text)

    def check(res: Result) -> str | None:
        out = _json(res)
        rows, cols = out["rows"], out["cols"]
        if out["permutation"] != list(word) or len(rows) != len(word) or len(cols) != len(word):
            return "witness has the wrong permutation or size"
        ri = [row_keys.index(r) for r in rows]
        ci = [col_keys.index(c) for c in cols]
        if ri != sorted(ri) or ci != sorted(ci):
            return "witness rows or columns are not in matrix order"
        for i, r in enumerate(ri):
            for j, c in enumerate(ci):
                if body[r][c] != ("1" if word[i] == j + 1 else "0"):
                    return "re-read submatrix is not the permutation matrix"
        firsts = [r.split(",")[0] for r in rows]
        if len(set(firsts)) != len(firsts):
            return "witness rows share a first end"
        return None

    return check


def check_circle_witness(rep: oracle.Rep, word):
    def check(res: Result) -> str | None:
        out = _json(res)
        vs, es = rep.graph()
        chosen = out["vertices"]
        sub = {e for e in es if e[0] in chosen and e[1] in chosen}
        pv, pe = oracle.permutation_graph(word)
        if not oracle.isomorphic_small(chosen, sub, pv, pe):
            return "witness vertices do not induce the permutation graph"
        return None

    return check


def check_exposure(rep: oracle.Rep, word):
    def check(res: Result) -> str | None:
        out = _json(res)
        vs, es = rep.graph()
        core = out["core"]
        side1 = [out["mates"]["side1"][c] for c in core]
        side2 = [out["mates"]["side2"][c] for c in core]
        keep = set(out["vertices"])
        if not keep >= set(core) | set(side1) | set(side2):
            return "mates lie outside the witness"
        if not oracle.exposes(keep, es, core, side1, side2, word):
            return "witness does not expose the permutation"
        return None

    return check


def check_robustness(case: str, samples: int):
    def check(res: Result) -> str | None:
        out = _json(res)
        if out["case"] != case or out["scripts_tested"] != samples:
            return f"tested {out['scripts_tested']} scripts of {samples}"
        if out["failures"] != []:
            return f"robustness failures: {out['failures'][:1]}"
        return None

    return check


def check_graph_output(vertices, edges):
    def check(res: Result) -> str | None:
        vs, es = oracle.graph_payload(res.stdout)
        if sorted(vs) != sorted(vertices) or es != edges:
            return f"graph differs from the expected one ({len(es)} vs {len(edges)} edges)"
        return None

    return check


def check_text_graph(vertices, edges):
    def check(res: Result) -> str | None:
        vs, es = oracle.parse_graph(res.stdout)
        if sorted(vs) != sorted(vertices) or es != edges:
            return f"decoded graph differs ({len(es)} vs {len(edges)} edges)"
        return None

    return check


def check_text_equal(expected: str):
    def check(res: Result) -> str | None:
        return None if res.stdout == expected else "output differs from the expected text"

    return check


# ---------------------------------------------------------------------------
# op lists


def _relabel(rng: random.Random, vertices, edges, prefix: str):
    names = rng.sample(range(10 * len(vertices)), len(vertices))
    m = {v: f"{prefix}{n}" for v, n in zip(vertices, names)}
    return [m[v] for v in vertices], {tuple(sorted((m[a], m[b]))) for a, b in edges}


def _random_word(rng: random.Random, p: int) -> tuple[int, ...]:
    w = list(range(1, p + 1))
    rng.shuffle(w)
    return tuple(w)


class Stream:
    """The op list of one workload run, with its input files.

    The list holds every op class and, for pooled classes, every pool
    instance; a run repeats the whole list, so its mix does not depend on
    the seed or on how many rounds fit.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.workdir = workdir
        self.manifest = load_manifest() if workload in ("lattice", "pipeline") else {}
        self.rng = random.Random(f"{workload}-{seed}")
        self.agree: dict[str, bool] = {}

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def ops(self) -> list[Op]:
        """The workload's ops, in the order they were drawn; writes their inputs."""
        return getattr(self, "_" + self.workload)()

    # -- lattice: exact partition-lattice solvers -------------------------

    def _lattice(self) -> list[Op]:
        ops = []
        for (n, p), i in LATTICE_RUN:
            cls = f"gnp-{n}-{p}" if p is not None else "gnp-10"
            dens = p if p is not None else (0.2, 0.8)[i % 2]
            vs, es = _relabel(self.rng, *gnp_pool(n, dens, i), "v")
            path = self.write(f"{cls}-{i}.g", oracle.graph_text(vs, es))
            expected = self.manifest["lattice"][cls][i]
            ops.append(
                Op(
                    "tww-exact-graph",
                    ["tww", "exact", "--graph", path, "--json"],
                    check_graph_exact(vs, es, expected),
                    followup=verify_followup(path, self.workdir / f"{cls}-{i}.seq"),
                )
            )
        for (name, (nr, nc, _, symmetric)), i in itertools.product(MATRIX_CLASSES.items(), range(POOL_SIZE)):
            m = matrix_pool(name, i)
            rows = self.rng.sample(range(nr), nr)
            cols = rows if symmetric else self.rng.sample(range(nc), nc)
            keys_r = [f"r{self.rng.randrange(1000)}x{k}" for k in range(nr)]
            keys_c = keys_r if symmetric else [f"c{self.rng.randrange(1000)}x{k}" for k in range(nc)]
            body = ["".join(m[r][q] for q in cols) for r in rows]
            text = f"matrix {nr} {nc}\n{' '.join(keys_r)}\n{' '.join(keys_c)}\n" + "\n".join(body) + "\n"
            path = self.write(f"{name}-{i}.mat", text)
            argv = ["tww", "exact", "--matrix", path, "--json"] + (["--symmetric"] if symmetric else [])
            expected = self.manifest["lattice"][name][i]
            ops.append(Op("tww-exact-matrix", argv, check_matrix_exact(text, expected, symmetric)))
        return ops

    # -- gadget: perturbation-robust gadgets ------------------------------

    # (case, pi size, r, most samples): the list runs every class at a
    # quarter and at three quarters of its most samples, which spreads op
    # costs evenly up to about a sixth of a second of verification
    ROBUSTNESS = (
        ("circle", 1, 1, 1600),
        ("circle", 2, 1, 800),
        ("circle", 3, 1, 500),
        ("circle", 1, 2, 800),
        ("circle", 2, 2, 16),
        ("interval", 1, 0, 7),
        ("interval", 1, 1, 4),
    )

    def _gadget(self) -> list[Op]:
        ops = []
        plan = [(cls, share) for cls in self.ROBUSTNESS for share in (1 / 4, 3 / 4)]
        # the largest circle gadget, twice: with hplus-interval a sixth of the
        # ops, so the 90th percentile falls inside that group
        plan += [(("circle", 3, 2, 1), 1)] * 2
        for (case, size, r, most), share in plan:
            word = _random_word(self.rng, size)
            samples = max(1, round(most * share))
            argv = ["robustness", "--case", case, "--pi", " ".join(map(str, word)), "-r", str(r),
                    "--mode", "sampled", "--samples", str(samples), "--seed", str(self.rng.randrange(10**6))]
            ops.append(Op(f"robustness-{case}", argv, check_robustness(case, samples)))
        for size, r in ((3, 1), (2, 2)):
            word = _random_word(self.rng, size)
            rho = oracle.lex_power_word(oracle.double_with_complement(word), 2**r)
            vs, es = oracle.permutation_graph(rho)
            argv = ["generate", "hplus-circle", "--pi", " ".join(map(str, word)), "-r", str(r), "--json"]
            ops.append(Op("generate-hplus-circle", argv, check_graph_output(vs, es)))
        # pi = 1 is the only interval gadget under the default vertex cap
        vs, es = oracle.exposer_edges(oracle.lex_power_word((1, 2, 3, 4), 4))
        ops.append(Op("generate-hplus-interval", ["generate", "hplus-interval", "--pi", "1", "--json"],
                      check_graph_output(vs, es)))
        return ops

    # -- pipeline: representations, FO model checking, obstructions -------

    def _pipeline(self) -> list[Op]:
        ops = []
        answers = self.manifest["pipeline"]
        for cls, i in itertools.product(FO_CLASSES, range(POOL_SIZE)):
            text, formula = fo_pool_entry(cls, i)
            src = "--chords" if cls == "fo-chords" else "--intervals"
            ext = "chd" if cls == "fo-chords" else "ivl"
            path = self.write(f"{cls}-{i}.{ext}", self._relabel_input(text, cls))
            fpath = self.write(f"{cls}-{i}.fo", FORMULAS[formula] + "\n")
            argv = ["fo-check", src, path, "--formula", fpath] + (["--kind", "overlap"] if cls == "fo-overlap" else [])
            expected = answers[cls][i]["fo"]
            key = f"{cls}-{i}"
            ops.append(Op("fo-check-direct", argv + ["--direct"], check_fo(expected, self.agree, key)))
            if cls != "abovecap":
                ops.append(Op("fo-check-pipeline", argv, check_fo(expected, self.agree, key)))
            elif i == 0:
                # the two known-defect ops: the FO pipeline on one above-cap model, condense on the other
                ops.append(Op("fo-check-pipeline", argv, check_fo(expected, self.agree, key), defect=ISO_CAP_DEFECT))
            else:
                rep = oracle.Rep.from_intervals(text, "interval")
                ops.append(Op("condense", ["condense", "--intervals", path, "--json"], check_condense(rep),
                              defect=ISO_CAP_DEFECT))
        # the light ops below make up most of the list, so the median op is one of them
        for kind, i in itertools.product(("interval", "overlap"), range(POOL_SIZE)):
            cls = "fo-interval" if kind == "interval" else "fo-overlap"
            text, _ = fo_pool_entry(cls, i)
            rep = oracle.Rep.from_intervals(text, kind)
            path = self.write(f"condense-{kind}-{i}.ivl", self._relabel_input(text, cls))
            ops.append(Op("condense", ["condense", "--intervals", path, "--kind", kind, "--json"], check_condense(rep)))
        for (k, cls), i in itertools.product(((2, "fo-interval"), (3, "fo-overlap")), range(POOL_SIZE)):
            text, _ = fo_pool_entry(cls, i)
            matrix = oracle.Rep.from_intervals(text, "interval").matrix_text()
            path = self.write(f"{cls}-{i}-mm{k}.mat", matrix)
            expected = answers[cls][i][f"mixed{k}"]
            ops.append(Op("mixed-minor", ["mixed-minor", "--matrix", path, "-k", str(k), "--json"],
                          check_mixed_minor(matrix, k, expected)))
        extracts = (("perm-submatrix", "interval"), ("circle-witness", "overlap"), ("exposure", "interval"))
        for (what, kind), p in itertools.product(extracts, (2, 3)):
            word = _random_word(self.rng, p)
            text = planted_intervals(p)
            rep = oracle.Rep.from_intervals(text, kind)
            path = self.write(f"planted-{what}-{p}.ivl", text)
            argv = ["extract", what, "--intervals", path, "--kind", kind, "--pi", " ".join(map(str, word)), "--json"]
            if what == "perm-submatrix":
                check = check_perm_submatrix(rep.matrix_text(), word)
            elif what == "circle-witness":
                check = check_circle_witness(rep, word)
            else:
                check = check_exposure(rep, word)
            ops.append(Op(f"extract-{what}", argv, check))
        return ops

    def _relabel_input(self, text: str, cls: str) -> str:
        """New interval ids or chord labels; the decoded graph is unchanged."""
        if cls == "fo-chords":
            labels = sorted(set(text.split()))
            fresh = self.rng.sample(range(100, 1000), len(labels))
            m = {lab: f"q{n}" for lab, n in zip(labels, fresh)}
            return " ".join(m[x] for x in text.split()) + "\n"
        lines = text.splitlines()
        fresh = self.rng.sample(range(100, 1000), len(lines))
        return "".join(f"i y{n} {ln.split()[2]} {ln.split()[3]}\n" for n, ln in zip(fresh, lines))

    # -- bulk: large inputs through light algorithms ----------------------

    def _bulk(self) -> list[Op]:
        """Every run has the same sizes; the seed draws the graphs and models."""
        ops = []
        for n in (150, 180):
            vs = [f"v{i}" for i in range(n)]
            es = {(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n) if self.rng.random() < 0.1}
            vs, es = _relabel(self.rng, vs, es, "n")
            path = self.write(f"greedy{n}.g", oracle.graph_text(vs, es))
            ops.append(Op("tww-greedy", ["tww", "greedy", "--graph", path, "--json"], check_graph_greedy(vs, es),
                          followup=verify_followup(path, self.workdir / f"greedy{n}.seq")))
        for what, kind, n in (("decode", "interval", 1000), ("decode", "overlap", 300), ("decode", "interval", 300),
                              ("ilmatrix", "interval", 300), ("ilmatrix", "overlap", 1000), ("ilmatrix", "overlap", 300)):
            text = intervals_text(interval_model(n, self.rng, 2 * n), "x")
            rep = oracle.Rep.from_intervals(text, kind)
            path = self.write(f"{what}-{kind}-{n}.ivl", text)
            argv = [what, "--intervals", path, "--kind", kind]
            if what == "decode":
                vs, es = rep.graph()
                ops.append(Op("decode", argv, check_text_graph(vs, es)))
            else:
                ops.append(Op("ilmatrix", argv, check_text_equal(rep.matrix_text())))
        for n in (300, 400, 500, 650, 800):
            vs = [f"p{i}" for i in range(n)]
            es = {(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n) if self.rng.random() < 0.05}
            es = {tuple(sorted(e)) for e in es}
            script = [sorted(self.rng.sample(vs, 60)) for _ in range(3)]
            path = self.write(f"perturb{n}.g", oracle.graph_text(vs, es))
            sets = ";".join(",".join(x) for x in script)
            ops.append(Op("perturb", ["perturb", "--graph", path, "--sets", sets, "--json"],
                          check_graph_output(vs, oracle.apply_perturbation(es, script))))
        return ops
