"""CLI surface: golden files (one per command), exit codes, JSON schemas."""

import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from twinwidth import fologic, graphs, ilrep, obstruction, perturb, solver, trimatrix
from twinwidth.cli import run
from conftest import (
    DATA,
    bulk_perturb_input,
    nested_sentence,
    oracle_exposer_graph,
    oracle_permutation_graph,
    quantifier_chain,
    seeded_intervals_text,
    traced_peak,
)

GOLDEN = DATA / "golden"
SCHEMAS = Path(__file__).parent.parent / "docs" / "schemas"


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def check_golden(name: str, got: str):
    path = GOLDEN / name
    expected = path.read_text()
    assert got == expected, f"output differs from golden {name}"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMAS / name).read_text())


@pytest.fixture
def demo5_adj(tmp_path) -> Path:
    """The adjacency matrix of demo5.g as a .mat file."""
    g = graphs.graph_from_text((DATA / "demo5.g").read_text())
    path = tmp_path / "demo5.adj.mat"
    path.write_text(trimatrix.matrix_to_text(trimatrix.adjacency_matrix(g)))
    return path


def test_golden_decode(capsys):
    code, out = run_cli(capsys, "decode", "--intervals", str(DATA / "demo6.ivl"), "--name", "demo6")
    assert code == 0
    check_golden("decode.txt", out)


def test_golden_ilmatrix(capsys):
    code, out = run_cli(capsys, "ilmatrix", "--intervals", str(DATA / "demo6.ivl"))
    assert code == 0
    assert out == (DATA / "demo6.mat.golden").read_text()


def test_golden_condense(capsys):
    code, out = run_cli(capsys, "condense", "--intervals", str(DATA / "p3slack.ivl"))
    assert code == 0
    check_golden("condense.txt", out)


def test_golden_mixed_minor(capsys):
    code, out = run_cli(capsys, "mixed-minor", "--matrix", str(DATA / "demo6.mat.golden"), "-k", "2")
    assert code == 0
    check_golden("mixed-minor.txt", out)


def test_golden_tww_verify(capsys):
    code, out = run_cli(
        capsys, "tww", "verify",
        "--graph", str(DATA / "demo5.g"), "--seq", str(DATA / "demo5.seq"), "--claim", "2",
    )
    assert code == 0
    assert json.loads(out) == {"verified": True}
    jsonschema.validate(json.loads(out), load_schema("verify.schema.json"))
    check_golden("tww-verify.txt", out)


def test_golden_extract(capsys):
    code, out = run_cli(
        capsys, "extract", "perm-submatrix",
        "--intervals", str(DATA / "planted1.ivl"), "--kind", "overlap", "--pi", "1", "--json",
    )
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("witness.schema.json"))
    check_golden("extract.txt", out)


def test_golden_generate(capsys):
    code, out = run_cli(capsys, "generate", "exposer", "--pi", "2 1", "--json")
    assert code == 0
    check_golden("generate.txt", out)


def test_golden_perturb(capsys):
    code, out = run_cli(capsys, "perturb", "--graph", str(DATA / "demo5.g"), "--sets", "a,b,c")
    assert code == 0
    check_golden("perturb.txt", out)


def test_golden_robustness(capsys):
    code, out = run_cli(capsys, "robustness", "--case", "circle", "--pi", "1", "-r", "0")
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("robustness.schema.json"))
    check_golden("robustness.txt", out)


@pytest.mark.parametrize(
    "golden, expected_code, argv",
    [
        ("robustness-circle-sampled.txt", 0,
         ["--case", "circle", "--pi", "2 1", "-r", "1", "--mode", "sampled", "--samples", "5", "--seed", "5"]),
        # u_power below 4: every script fails with a diagnostic, so the failure payload is pinned
        ("robustness-interval-r0.txt", 1,
         ["--case", "interval", "--pi", "1", "-r", "0", "--u-power", "1", "--exponent", "1", "--mode", "exhaustive"]),
        ("robustness-interval-sampled.txt", 1,
         ["--case", "interval", "--pi", "1", "-r", "1", "--u-power", "2", "--exponent", "2",
          "--mode", "sampled", "--samples", "2", "--seed", "3"]),
    ],
)
def test_golden_robustness_payloads(capsys, golden, expected_code, argv):
    code, out = run_cli(capsys, "robustness", *argv)
    assert code == expected_code
    jsonschema.validate(json.loads(out), load_schema("robustness.schema.json"))
    check_golden(golden, out)


def test_golden_fo_check(capsys):
    code, out = run_cli(
        capsys, "fo-check", "--intervals", str(DATA / "demo6.ivl"),
        "--formula", str(DATA / "dominating.fo"),
    )
    assert code == 0
    check_golden("fo-check.txt", out)


def test_fo_check_direct_agrees(capsys):
    _, pipeline = run_cli(
        capsys, "fo-check", "--intervals", str(DATA / "demo6.ivl"),
        "--formula", str(DATA / "dominating.fo"),
    )
    _, direct = run_cli(
        capsys, "fo-check", "--intervals", str(DATA / "demo6.ivl"),
        "--formula", str(DATA / "dominating.fo"), "--direct",
    )
    assert json.loads(pipeline) == json.loads(direct)


def test_condense_and_fo_check_past_twelve_vertices(capsys):
    # abovecap13: 13 intervals, and some legal unification of them changes the graph;
    # interval160: bench/workloads.interval_model(160, Random(3), 320)
    for name, size in (("abovecap13.ivl", 13), ("interval160.ivl", 160)):
        model = str(DATA / name)
        code, out = run_cli(capsys, "condense", "--intervals", model, "--json")
        assert code == 0
        assert len(json.loads(out)["intervals"]) == size
        fo = ["fo-check", "--intervals", model, "--formula", str(DATA / "dominating.fo")]
        code, pipeline = run_cli(capsys, *fo)
        assert code == 0
        _, direct = run_cli(capsys, *fo, "--direct")
        assert json.loads(pipeline) == json.loads(direct)


def test_fo_check_nesting_limit(capsys, tmp_path):
    # the pipeline turns each quantifier into two levels of the rewritten formula
    limit = fologic.MAX_FORMULA_DEPTH
    for shape in (nested_sentence, quantifier_chain):
        at_limit = tmp_path / "at.fo"
        at_limit.write_text(shape(limit) + "\n")
        fo = ["fo-check", "--intervals", str(DATA / "demo6.ivl"), "--formula", str(at_limit)]
        code, pipeline = run_cli(capsys, *fo)
        assert code == 0
        code, direct = run_cli(capsys, *fo, "--direct")
        assert code == 0
        assert json.loads(pipeline) == json.loads(direct)
        over = tmp_path / "over.fo"
        over.write_text(shape(limit + 1) + "\n")
        for extra in ([], ["--direct"]):
            assert run(["fo-check", "--intervals", str(DATA / "demo6.ivl"), "--formula", str(over), *extra]) == 1
            err = capsys.readouterr().err
            assert err == f"error: formula nests deeper than {limit} parentheses\n"


@pytest.mark.parametrize("text", ["(exists x (or true (foo x x)))", "(exists x (or true (m x)))"])
def test_fo_check_unknown_symbol_fails_on_both_paths(capsys, tmp_path, text):
    # the atom is never reached, but an unknown relation or mark is still an error
    path = tmp_path / "f.fo"
    path.write_text(text + "\n")
    for extra in ([], ["--direct"]):
        assert run(["fo-check", "--intervals", str(DATA / "demo6.ivl"), "--formula", str(path), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_solver_json_schema(capsys):
    code, out = run_cli(capsys, "tww", "exact", "--graph", str(DATA / "demo5.g"), "--json")
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("solve.schema.json"))
    # over the default cap the matrix solver falls back to the greedy bound
    code, out = run_cli(
        capsys, "tww", "exact", "--matrix", str(DATA / "demo6.mat.golden"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["optimal"] is False
    jsonschema.validate(payload, load_schema("solve.schema.json"))


def test_golden_tww_exact(capsys, demo5_adj):
    outs = []
    for inputs in (
        ["--graph", str(DATA / "demo5.g")],
        ["--matrix", str(demo5_adj), "--symmetric"],
        ["--matrix", str(DATA / "asym4x5.mat")],
        # rows + cols is over the default cap, so this is the greedy bound
        ["--matrix", str(DATA / "demo6.mat.golden")],
    ):
        code, out = run_cli(capsys, "tww", "exact", *inputs, "--json")
        assert code == 0
        outs.append(out)
    check_golden("tww-exact.txt", "".join(outs))


def test_golden_tww_greedy(capsys, tmp_path):
    rng = random.Random(60)
    vs = [f"v{i:02d}" for i in range(60)]
    gnp = graphs.Graph.build(vs, [e for e in itertools.combinations(vs, 2) if rng.random() < 0.1])
    (tmp_path / "gnp60.g").write_text(graphs.graph_to_text(gnp, "gnp60"))
    # merging a and b names the new vertex ab, which is still live
    (tmp_path / "taken.g").write_text("graph taken 4 2\nv a\nv ab\nv b\nv c\ne a c\ne b c\n")
    outs = []
    for path in (DATA / "demo5.g", tmp_path / "gnp60.g", tmp_path / "taken.g"):
        code, out = run_cli(capsys, "tww", "greedy", "--graph", str(path), "--json")
        assert code == 0
        outs.append(out)
    check_golden("tww-greedy.txt", "".join(outs))


def test_tww_matrix_symmetric_and_greedy(capsys, demo5_adj):
    code, out = run_cli(
        capsys, "tww", "exact", "--graph", str(DATA / "demo5.g"), "--cap", "10", "--json"
    )
    exact_value = json.loads(out)["value"]
    code, out = run_cli(capsys, "tww", "greedy", "--graph", str(DATA / "demo5.g"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimal"] is False and payload["value"] >= exact_value
    jsonschema.validate(payload, load_schema("solve.schema.json"))

    code, out = run_cli(capsys, "tww", "exact", "--matrix", str(demo5_adj), "--symmetric", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimal"] is True
    assert abs(payload["value"] - exact_value) <= 1


@pytest.mark.parametrize("action", ["exact", "greedy"])
def test_tww_sequence_verifies_when_merged_name_is_taken(capsys, tmp_path, action):
    # merging a and b first would name the new vertex ab, which is still live
    graph = tmp_path / "taken.g"
    graph.write_text("graph taken 4 2\nv a\nv ab\nv b\nv c\ne a c\ne b c\n")
    code, out = run_cli(capsys, "tww", action, "--graph", str(graph), "--json")
    assert code == 0
    payload = json.loads(out)
    seq = tmp_path / "taken.seq"
    seq.write_text("".join(f"c {u} {v} {merged}\n" for u, v, merged in payload["sequence"]))
    code, out = run_cli(
        capsys, "tww", "verify", "--graph", str(graph), "--seq", str(seq), "--claim", str(payload["value"])
    )
    assert code == 0
    assert json.loads(out) == {"verified": True}


def test_tww_verify_empty_graph(capsys, tmp_path):
    graph = tmp_path / "empty.g"
    graph.write_text("graph g 0 0\n")
    seq = tmp_path / "empty.seq"
    seq.write_text("")
    assert run(["tww", "verify", "--graph", str(graph), "--seq", str(seq), "--claim", "0"]) == 1
    assert capsys.readouterr().err == "error: empty graph has no contraction sequence\n"


def test_decode_chords_kind_validation(capsys):
    assert run(["decode", "--chords", str(DATA / "demo7.chd"), "--kind", "interval"]) == 1
    capsys.readouterr()


def test_witness_schema_other_types(capsys):
    code, out = run_cli(
        capsys, "mixed-minor", "--matrix", str(DATA / "demo6.mat.golden"), "-k", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"]
    jsonschema.validate(payload["witness"], load_schema("witness.schema.json"))

    code, out = run_cli(
        capsys, "extract", "circle-witness",
        "--intervals", str(DATA / "planted1.ivl"), "--kind", "overlap", "--pi", "1", "--json",
    )
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("witness.schema.json"))

    code, out = run_cli(
        capsys, "extract", "exposure",
        "--intervals", str(DATA / "planted1.ivl"), "--pi", "1", "--json",
    )
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("witness.schema.json"))


def test_exit_codes(capsys, tmp_path):
    assert run(["tww", "exact", "--graph", "does-not-exist.g"]) == 1
    capsys.readouterr()
    bad_header = tmp_path / "bad.g"
    bad_header.write_text("graph g x 0\n")
    assert run(["tww", "exact", "--graph", str(bad_header)]) == 1
    assert capsys.readouterr().err == "error: bad graph header: 'graph g x 0'\n"
    with pytest.raises(SystemExit) as exc:
        run(["unknown-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(["robustness", "--case", "circle", "--pi", "1", "-r", "1", "--mode", "sampled"]) == 1
    capsys.readouterr()
    # caps far below the guarded count: the count must not be built or printed in full
    for argv in (
        ["generate", "hplus-circle", "--pi", "1", "-r", "14"],
        ["generate", "hplus-circle", "--pi", "1", "-r", "20000"],
        ["generate", "hplus-interval", "--pi", "1", "-r", "20000"],
        ["robustness", "--case", "interval", "--pi", "1", "-r", "1", "--mode", "exhaustive"],
        # --cap reaches the interval builder too
        ["robustness", "--case", "interval", "--pi", "1", "-r", "0", "--cap", "1",
         "--mode", "sampled", "--samples", "1", "--seed", "1"],
        ["robustness", "--case", "circle", "--pi", "1", "-r", "10000", "--exponent", "1", "--mode", "exhaustive"],
        # the homogeneous-set precondition exponent >= 2^r is refused before any script is drawn
        ["robustness", "--case", "circle", "--pi", "1", "-r", "10000000", "--exponent", "1",
         "--mode", "sampled", "--samples", "1", "--seed", "1"],
        ["robustness", "--case", "interval", "--pi", "1", "-r", "10000000", "--exponent", "1",
         "--mode", "sampled", "--samples", "1", "--seed", "1"],
    ):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, data, err",
    [
        (["tww", "greedy", "--graph"], b"graph g 1 0\nv \xff\n", "error: cannot read {path}: 'utf-8' codec can't decode"),
        (["decode", "--intervals"], b"i a 1/0 2\n", "error: bad interval bounds in 'i a 1/0 2'\n"),
    ],
    ids=["non-utf8", "zero-denominator"],
)
def test_undecodable_input_is_one_error_line(capsys, tmp_path, argv, data, err):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert run([*argv, str(path)]) == 1
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith(err.format(path=path)) and got.err.count("\n") == 1


def test_tww_cap_defaults_to_each_solvers_own(capsys, monkeypatch, demo5_adj):
    caps = []
    for module, name in ((solver, "twinwidth_exact"), (trimatrix, "matrix_twinwidth_exact")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, **kw: caps.append(kw.get("cap")) or real(*a, **kw))
    for source in (["--graph", str(DATA / "demo5.g")], ["--matrix", str(demo5_adj)]):
        assert run(["tww", "exact", *source]) == 0
        assert run(["tww", "exact", *source, "--cap", "9"]) == 0
    capsys.readouterr()
    assert caps == [None, 9, None, 9]


@pytest.mark.parametrize("case", ["circle", "interval"])
def test_robustness_sample_count(capsys, case):
    sampled = ["robustness", "--case", case, "--pi", "1", "-r", "1", "--mode", "sampled", "--seed", "1"]
    assert run([*sampled, "--samples", "-3"]) == 1
    got = capsys.readouterr()
    assert (got.out, got.err) == ("", "error: samples must be nonnegative\n")
    # zero samples is a valid, empty sweep
    code, out = run_cli(capsys, *sampled, "--samples", "0")
    assert code == 0
    assert json.loads(out)["scripts_tested"] == 0


@pytest.mark.parametrize("case", ["circle", "interval"])
def test_robustness_empty_pattern_is_one_error_line(capsys, case):
    assert run(["robustness", "--case", case, "--pi", "", "-r", "0"]) == 1
    got = capsys.readouterr()
    assert (got.out, got.err) == ("", "error: base must be nonempty\n")


@pytest.mark.parametrize("drop", ["--seq", "--claim", "--graph"])
def test_tww_verify_needs_all_inputs(capsys, drop):
    inputs = {"--graph": str(DATA / "demo5.g"), "--seq": str(DATA / "demo5.seq"), "--claim": "2"}
    del inputs[drop]
    with pytest.raises(SystemExit) as exc:
        run(["tww", "verify", *(x for pair in inputs.items() for x in pair)])
    assert exc.value.code == 2
    got = capsys.readouterr()
    assert got.out == "" and f"the following arguments are required: {drop}" in got.err


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "twinwidth.cli", "generate", "permgraph", "--pi", "2 1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "e 1 2" in proc.stdout


def assert_closed_pipe_is_one_error_line(argv: list[str], first: bytes) -> None:
    """Run the CLI on argv, close its stdout after the first byte: exit 1, one error line, no traceback."""
    with subprocess.Popen([sys.executable, "-m", "twinwidth.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(1) == first
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert err == "error: output pipe closed\n"
    assert "Traceback" not in err and "Exception ignored" not in err


def test_closed_output_pipe_is_one_error_line():
    # 6.4 MB of JSON: the writer blocks on the full pipe until the reader closes it
    assert_closed_pipe_is_one_error_line(["generate", "hplus-interval", "--pi", "1", "--json"], b"{")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command, first", [("decode", b"g"), ("ilmatrix", b"m"), ("ilmatrix --json", b"{")])
def test_closed_output_pipe_row_streamed(intervals1000, command, first, unbuffered, monkeypatch):
    # about 3 MB each, written row by row: the pipe fills long before the end.  Unbuffered, one
    # write of the whole text would end in a short write that TextIOWrapper drops without an error.
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    assert_closed_pipe_is_one_error_line([*command.split(), "--intervals", str(intervals1000)], first)


# sha256 of `generate hplus-interval --pi 1 --json` (768 vertices, 163 712 edges)
HPLUS_INTERVAL_SHA256 = "27b39fb2e7fb536f9b2a75189d7eb60a9ebe65a9d47001ac2118942af6e122aa"

# vertex names that JSON must escape or that sort unlike their ranks; no whitespace (the .g format splits on it)
NAMES = ("a", "B", "b", "9", "10", 'a"b', "\\", "é", "x,y", "日本", "😀", "\x7f", "u1", "w12")


def run_stdout(argv: list[str]) -> tuple[int, str]:
    """run() with stdout captured without capsys, which Hypothesis tests cannot take."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def graph_payload_text(vertices, edges, extra=None) -> str:
    """The graph payload contract: json.dumps(indent=2) of plain lists, edges normalised and sorted."""
    payload = {"vertices": sorted(vertices), "edges": sorted([min(u, v), max(u, v)] for u, v in edges)}
    payload.update(extra or {})
    return json.dumps(payload, indent=2) + "\n"


def test_hplus_interval_json_bytes_pinned():
    code, out = run_stdout(["generate", "hplus-interval", "--pi", "1", "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HPLUS_INTERVAL_SHA256


# sha256 of `generate hplus-circle --pi "3 1 2" -r 2` (1 296 vertices), as JSON and as .g text
HPLUS_CIRCLE_SHA256 = {
    "--json": "6377c0fb3cf6a0d930c032687e7980e796daf06dc6a48c374aec50a0aeff4472",
    "": "f74326c8dcfce6d6ef7b8ef9c60e670f000f516fc63340dd6afde9daef513273",
}


@pytest.mark.parametrize("flag", HPLUS_CIRCLE_SHA256, ids=["json", "text"])
def test_hplus_circle_bytes_pinned(flag):
    code, out = run_stdout(["generate", "hplus-circle", "--pi", "3 1 2", "-r", "2", *flag.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HPLUS_CIRCLE_SHA256[flag]


# sha256 of the output on the seeded 1 000-interval model: a 2 304 x 1 309 overlap
# matrix, as text and as JSON, the interval graph's 149 826 edges as .g text and as
# JSON, the overlap graph as .g text, and both kinds' condensed representations as JSON
BULK_SHA256 = {
    "ilmatrix --kind overlap": "651fc6c228743bc1544614b0816081d08cea18d61d826f6ae84c30dad3c8632e",
    "ilmatrix --kind overlap --json": "9f785a88620c7deadf5a115d54ae036481f5df77bbdcb75fdde3562b64ac301a",
    "decode --kind interval": "36c5bafd14617cee0e55039631a79c806a9a81c7d7ccf35cdc0f2f53db42b77a",
    "decode --kind interval --json": "bbd51610421fa749cd12a9e2cb90cb77444216e611029baaf951da45f37d1068",
    "decode --kind overlap": "7873d716f5cbd81908a5d310a5332e18c236e2064fbdd291c1cdbaa8ad131cab",
    "condense --kind interval --json": "c57a19ec0ab6de577cf2f64df38fcb33ce924b7aa95e15d0c81cec86bf01c660",
    "condense --kind overlap --json": "da1e04d69c33076e9514fd6fbcf30813ecd199b4af21e6962f78ba9ed3623139",
}


@pytest.mark.parametrize("command", BULK_SHA256)
def test_bulk_outputs_pinned(intervals1000, command):
    code, out = run_stdout([*command.split(), "--intervals", str(intervals1000)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BULK_SHA256[command]


class DiscardingSink(io.TextIOBase):
    """A text stream that drops every write, so a traced run holds none of its output."""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        return len(text)


@pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
def test_ilmatrix_memory_is_bounded(intervals1000, output):
    """``ilmatrix`` builds and writes its rows one at a time: the whole run stays within 1.5 MiB.

    Holding every row of this 2 304-row matrix before the first write took 3.9 MiB.
    """
    argv = ["ilmatrix", "--intervals", str(intervals1000), "--kind", "overlap", *output]
    with redirect_stdout(DiscardingSink()):
        assert run(argv) == 0  # untraced first, so caches filled on first use are not counted
        assert traced_peak(lambda: run(argv)) <= 1.5 * 2**20


@pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
def test_ilmatrix_checks_keys_before_writing(monkeypatch, capsys, output):
    monkeypatch.setattr(ilrep, "pair_name", lambda pair: "one key")
    code = run(["ilmatrix", "--intervals", str(DATA / "demo6.ivl"), *output])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: duplicate row or column keys\n")


def test_bulk_perturb_json_pinned(tmp_path):
    """``perturb --json`` on a graph of the ``bulk`` benchmark's shape: G(800, .05) and three 60-vertex sets."""
    text, sets = bulk_perturb_input()
    path = tmp_path / "p800.g"
    path.write_text(text)
    code, out = run_stdout(["perturb", "--graph", str(path), "--sets", sets, "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "f2e39a2d9d5054bee62e9d14ea6603bb63a28b749e9399852a72753c08146f60"


def test_bulk_greedy_json_pinned(tmp_path):
    """``tww greedy --json`` on a graph of the ``bulk`` benchmark's shape: G(180, .1)."""
    rng = random.Random(180)
    vs = [f"n{i}" for i in range(180)]  # names sort unlike their ranks: n17 < n2
    rng.shuffle(vs)
    es = [(vs[i], vs[j]) for i in range(180) for j in range(i + 1, 180) if rng.random() < 0.1]
    path = tmp_path / "g180.g"
    path.write_text(f"graph g 180 {len(es)}\n" + "".join(f"v {v}\n" for v in vs) + "".join(f"e {a} {b}\n" for a, b in es))
    code, out = run_stdout(["tww", "greedy", "--graph", str(path), "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "c180bcd7672ba76497bbfcc45cba206970ce82c5598e2b40cd7294d7aac2c9e6"


# sha256 of `condense --json` on seeded_intervals_text(200, seed=3), per kind
CONDENSE200_SHA256 = {
    "interval": "72721b68d6ab88e98b89650f7db3eb42964964713a0ac06daa5e222468a9dcde",
    "overlap": "bbdf413c6a74b3e553192d6252a9f6e966deb3bca5bfefc506d9b3693d13bcfa",
}


@pytest.mark.parametrize("kind", CONDENSE200_SHA256)
def test_condense_json_pinned(tmp_path, kind):
    path = tmp_path / "m200.ivl"
    path.write_text(seeded_intervals_text(200, seed=3))
    code, out = run_stdout(["condense", "--intervals", str(path), "--kind", kind, "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONDENSE200_SHA256[kind]


@pytest.mark.parametrize("text", ["", "i a 0 2\n", "i a 0 2\ni b 1 3\ni c 1 1\n"], ids=["empty", "one", "three"])
def test_ilmatrix_json_matches_json_dumps(tmp_path, text):
    path = tmp_path / "in.ivl"
    path.write_text(text)
    m = ilrep.build_ilmatrix(ilrep.rep_from_intervals(ilrep.intervals_from_text(text), ilrep.INTERVAL)).matrix
    payload = {"rows": list(m.row_keys), "cols": list(m.col_keys), "entries": list(map(trimatrix.row_text, m.rows))}
    code, out = run_stdout(["ilmatrix", "--intervals", str(path), "--json"])
    assert code == 0
    assert out == json.dumps(payload, indent=2) + "\n"


def test_golden_perturb_escaped_names():
    code, out = run_stdout(["perturb", "--graph", str(DATA / "names.g"), "--sets", 'a"b,é,\\;é,日本', "--json"])
    assert code == 0
    check_golden("perturb-names.txt", out)


@st.composite
def named_graphs(draw):
    vertices = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=12))
    pairs = list(itertools.combinations(vertices, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return vertices, edges


@settings(max_examples=40, deadline=None)
@given(named_graphs(), st.data())
@example(([], []), None)
@example((list(NAMES[:12]), []), None)
def test_perturb_json_matches_json_dumps(graph, data):
    vertices, edges = graph
    # names with a comma cannot be listed in --sets
    listable = [v for v in vertices if "," not in v]
    script = data.draw(st.lists(st.lists(st.sampled_from(listable), unique=True), max_size=3)) if data and listable else []
    toggled = {frozenset(e) for e in edges}
    for subset in script:
        toggled ^= {frozenset(pair) for pair in itertools.combinations(subset, 2)}
    text = f"graph g {len(vertices)} {len(edges)}\n"
    text += "".join(f"v {v}\n" for v in vertices) + "".join(f"e {u} {v}\n" for u, v in edges)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.g"
        path.write_text(text)
        code, out = run_stdout(["perturb", "--graph", str(path), "--sets=" + ";".join(map(",".join, script)), "--json"])
    assert code == 0
    assert out == graph_payload_text(vertices, [tuple(e) for e in toggled])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)).map(sorted).map(tuple), unique=True, max_size=12),
    st.sampled_from(ilrep.KINDS),
)
@example([], ilrep.INTERVAL)
@example([(i, i) for i in range(12)], ilrep.INTERVAL)
def test_decode_json_matches_json_dumps(spans, kind):
    g = ilrep.decode(ilrep.rep_from_intervals([(f"i{k}", l, r) for k, (l, r) in enumerate(spans)], kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.ivl"
        path.write_text("".join(f"i i{k} {l} {r}\n" for k, (l, r) in enumerate(spans)))
        code, out = run_stdout(["decode", "--intervals", str(path), "--kind", kind, "--json"])
    assert code == 0
    assert out == graph_payload_text(g.vertices, g.edges)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("permgraph", "exposer", "hplus-circle", "hplus-interval")), st.data())
@example("permgraph", None)
@example("exposer", None)
def test_generate_json_matches_json_dumps(what, data):
    # sizes keep every graph at 0-12 vertices
    p = {"permgraph": 12, "exposer": 4, "hplus-circle": 6, "hplus-interval": 1}[what]
    word = tuple(data.draw(st.permutations(range(1, p + 1)))) if data else ()
    argv = ["generate", what, "--pi", " ".join(map(str, word)), "--json"]
    if what == "permgraph":
        g, extra = graphs.permutation_graph(word), None
    elif what == "exposer":
        inst = obstruction.generate_exposer(word)
        g = inst.graph
        extra = {"core": list(inst.core), "side1": list(inst.side1), "side2": list(inst.side2),
                 "intervals": [list(t) for t in inst.intervals]}
    elif what == "hplus-circle":
        gadget = perturb.build_circle_gadget(word, 0)
        g, extra = gadget.graph, {"power_permutation": list(gadget.word), "exponent": gadget.orders.exponent}
    else:
        argv += ["--u-power", "1", "--exponent", "1"]
        gadget = perturb.build_interval_gadget(word, 0, u_power=1, exponent=1)
        g = gadget.materialize().graph
        extra = {"core_vertices": gadget.size, "u_power": gadget.u_power, "z_power": gadget.z_power}
    assert len(g.vertices) <= 12
    code, out = run_stdout(argv)
    assert code == 0
    assert out == graph_payload_text(g.vertices, g.edges, extra)


@pytest.mark.parametrize("what", ["hplus-interval", "hplus-circle"])
def test_generate_json_matches_oracle_at_bench_sizes(what):
    # the sizes the gadget benchmark generates; the expected payload comes from the oracle's name pairs
    if what == "hplus-interval":
        argv = ["--pi", "1"]
        gadget = perturb.build_interval_gadget((1,))
        vertices, edges = oracle_exposer_graph(gadget.orders.permutation_word())
        extra = {"core_vertices": gadget.size, "u_power": gadget.u_power, "z_power": gadget.z_power}
    else:
        argv = ["--pi", "2 1", "-r", "2"]
        gadget = perturb.build_circle_gadget((2, 1), 2)
        vertices, edges = oracle_permutation_graph(gadget.word)
        extra = {"power_permutation": list(gadget.word), "exponent": gadget.orders.exponent}
    assert len(vertices) == {"hplus-interval": 768, "hplus-circle": 256}[what]
    code, out = run_stdout(["generate", what, *argv, "--json"])
    assert code == 0
    assert out == graph_payload_text(vertices, edges, extra)


DEMO5, DEMO5_SEQ = str(DATA / "demo5.g"), str(DATA / "demo5.seq")


ROBUSTNESS = ["robustness", "--case", "circle", "--pi", "1", "-r", "0"]


@pytest.mark.parametrize(
    "argv, message",
    [
        # each id names the rule its case checks; the message is argparse's own
        pytest.param(["tww", "greedy", "--graph", DEMO5, "--cap", "1"], "unrecognized arguments: --cap 1",
                     id="argv0-tww greedy does not take --cap"),
        pytest.param(["tww", "greedy", "--graph", DEMO5, "--seq", DEMO5_SEQ, "--claim", "2"],
                     f"unrecognized arguments: --seq {DEMO5_SEQ} --claim 2", id="argv1-tww greedy does not take --seq, --claim"),
        pytest.param(["tww", "exact", "--graph", DEMO5, "--symmetric"], "argument --symmetric: not allowed with argument --graph",
                     id="argv2-tww exact does not take --symmetric"),
        pytest.param(["tww", "exact", "--graph", DEMO5, "--claim", "0"], "unrecognized arguments: --claim 0",
                     id="argv3-tww exact does not take --claim"),
        pytest.param(["tww", "exact", "--graph", DEMO5, "--matrix", str(DATA / "demo6.mat.golden")],
                     "argument --matrix: not allowed with argument --graph", id="argv4-tww exact --matrix does not take --graph"),
        pytest.param(["tww", "verify", "--graph", DEMO5, "--seq", DEMO5_SEQ, "--claim", "2", "--cap", "0"],
                     "unrecognized arguments: --cap 0", id="argv5-tww verify does not take --cap"),
        pytest.param(["generate", "exposer", "--pi", "1", "--cap", "-1"], "unrecognized arguments: --cap -1",
                     id="argv6-generate exposer does not take --cap"),
        pytest.param(["generate", "permgraph", "--pi", "1", "-r", "0", "--exponent", "1", "--u-power", "4"],
                     "unrecognized arguments: -r 0 --exponent 1 --u-power 4",
                     id="argv7-generate permgraph does not take -r, --exponent, --u-power"),
        pytest.param(["generate", "hplus-circle", "--pi", "1", "--u-power", "4"], "unrecognized arguments: --u-power 4",
                     id="argv8-generate hplus-circle does not take --u-power"),
        ([*ROBUSTNESS, "--u-power", "9"], "robustness --case circle does not take --u-power"),
        ([*ROBUSTNESS, "--mode", "exhaustive", "--samples", "5"], "robustness --mode exhaustive does not take --samples"),
        ([*ROBUSTNESS, "--mode", "sampled", "--seed", "1", "--budget", "5"],
         "robustness --mode sampled does not take --budget"),
        (["decode", "--intervals", str(DATA / "demo6.ivl"), "--json", "--name", "x"],
         "argument --name: not allowed with argument --json"),
        (["decode", "--intervals", str(DATA / "demo6.ivl"), "--chords", str(DATA / "demo7.chd")],
         "argument --chords: not allowed with argument --intervals"),
        (["tww", "verify", "--graph", DEMO5, "--seq", DEMO5_SEQ, "--claim", "2", "--json"],
         "unrecognized arguments: --json"),
        (["tww", "greedy"], "the following arguments are required: --graph"),
        (["decode"], "one of the arguments --intervals --chords is required"),
        # g is the name the .g text gets by default; giving it is still a second output option
        (["decode", "--intervals", str(DATA / "demo6.ivl"), "--json", "--name", "g"],
         "argument --name: not allowed with argument --json"),
        (["perturb", "--graph", DEMO5, "--json", "--name", "g"], "argument --name: not allowed with argument --json"),
        (["generate", "permgraph", "--pi", "1", "--json", "--name", "g"],
         "argument --name: not allowed with argument --json"),
    ],
)
def test_options_the_action_ignores_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    got = capsys.readouterr()
    assert got.out == "" and message in got.err


def test_generate_defaults_are_the_builders(capsys):
    for what, defaults in (
        ("hplus-circle", ["-r", "0", "--cap", str(perturb.DEFAULT_GADGET_CAP)]),
        ("hplus-interval", ["-r", "0", "--u-power", "4", "--cap", str(perturb.DEFAULT_GADGET_CAP)]),
    ):
        base = ["generate", what, "--pi", "1"]
        assert run_cli(capsys, *base) == run_cli(capsys, *base, *defaults)


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "--intervals", str(DATA / "demo6.ivl")],
        ["decode", "--chords", str(DATA / "demo7.chd")],
        ["perturb", "--graph", str(DATA / "names.g"), "--sets", "10,9,iso"],
        ["generate", "permgraph", "--pi", "3 1 4 2"],
        ["generate", "exposer", "--pi", "2 3 1"],
        ["generate", "hplus-circle", "--pi", "2 1", "-r", "1"],
        ["generate", "hplus-interval", "--pi", "1", "--u-power", "1", "--exponent", "2"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_graph_json_schema(capsys, argv):
    code, out = run_cli(capsys, *argv, "--json")
    assert code == 0
    jsonschema.validate(json.loads(out), load_schema("graph.schema.json"))


DEMO6, DEMO7 = ["--intervals", str(DATA / "demo6.ivl")], ["--chords", str(DATA / "demo7.chd")]
FO = ["--formula", str(DATA / "dominating.fo")]
MAT = ["--matrix", str(DATA / "demo6.mat.golden")]


@pytest.mark.parametrize(
    "argv, schema",
    [
        (["fo-check", *DEMO6, *FO], "fo-check.schema.json"),
        (["fo-check", *DEMO6, *FO, "--direct"], "fo-check.schema.json"),
        (["fo-check", *DEMO7, *FO], "fo-check.schema.json"),
        (["fo-check", *DEMO7, *FO, "--direct"], "fo-check.schema.json"),
        (["condense", *DEMO6, "--json"], "condense.schema.json"),
        (["condense", *DEMO7, "--json"], "condense.schema.json"),
        (["ilmatrix", *DEMO6, "--json"], "ilmatrix.schema.json"),
        (["ilmatrix", *DEMO7, "--json"], "ilmatrix.schema.json"),
        (["mixed-minor", *MAT, "-k", "2", "--json"], "mixed-minor.schema.json"),
        (["mixed-minor", *MAT, "-k", "3", "--json"], "mixed-minor.schema.json"),
    ],
    ids=[
        "fo-check-ivl", "fo-check-ivl-direct", "fo-check-chd", "fo-check-chd-direct", "condense-ivl", "condense-chd",
        "ilmatrix-ivl", "ilmatrix-chd", "mixed-minor-found", "mixed-minor-none",
    ],
)
def test_json_output_schemas(capsys, argv, schema):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema(schema))
    if payload.get("witness") is not None:
        jsonschema.validate(payload["witness"], load_schema("witness.schema.json"))


# Every command form that reads an input file of tests/data, keyed by the
# file's first suffix; the path of the file under test follows each form.
FO, DEMO6 = str(DATA / "dominating.fo"), str(DATA / "demo6.ivl")
READERS = {
    ".ivl": [["decode", "--intervals"], ["ilmatrix", "--intervals"], ["condense", "--intervals"],
             ["fo-check", "--formula", FO, "--intervals"], ["extract", "perm-submatrix", "--pi", "1", "--intervals"]],
    ".chd": [["decode", "--chords"], ["ilmatrix", "--chords"], ["condense", "--chords"],
             ["fo-check", "--formula", FO, "--chords"], ["extract", "circle-witness", "--pi", "1", "--chords"]],
    ".g": [["tww", "greedy", "--graph"], ["tww", "exact", "--graph"], ["perturb", "--sets", "a,b,c", "--graph"],
           ["tww", "verify", "--seq", DEMO5_SEQ, "--claim", "2", "--graph"]],
    ".seq": [["tww", "verify", "--graph", DEMO5, "--claim", "2", "--seq"]],
    ".mat": [["tww", "exact", "--matrix"], ["mixed-minor", "-k", "2", "--matrix"]],
    ".fo": [["fo-check", "--intervals", DEMO6, "--formula"], ["fo-check", "--direct", "--intervals", DEMO6, "--formula"]],
}
INPUTS = sorted(path.name for path in DATA.iterdir() if path.is_file())
# characters of the input formats, plus any character at all
FUZZ_CHARS = st.one_of(st.sampled_from(" \n\r\t0123456789-/.,;()=#abceginmtvxé"), st.characters(codec="utf-8"))


@st.composite
def mutated_inputs(draw):
    name = draw(st.sampled_from(INPUTS))
    text = (DATA / name).read_text()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("delete", "insert", "duplicate")))
        j = i + draw(st.integers(1, 4))
        if edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "insert":
            text = text[:i] + draw(st.text(FUZZ_CHARS, min_size=1, max_size=3)) + text[i:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return name, text


def test_readers_cover_every_input_file():
    assert {"." + name.split(".")[1] for name in INPUTS} == READERS.keys()


@settings(max_examples=60, deadline=None)
@given(mutated_inputs())
def test_mutated_inputs_keep_the_cli_contract(mutated):
    # a few characters deleted, inserted or duplicated: every command that
    # reads the file exits 0, 1 with one error line, or 2, and nothing but
    # SystemExit escapes run()
    name, text = mutated
    suffix = "." + name.split(".")[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        for form in READERS[suffix]:
            argv = [*form, str(path)]
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    code = run(argv)
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2), (argv, text)
            if code == 1:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (argv, text)
