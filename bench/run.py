"""The repository benchmark: seeded CLI workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --report --seconds 10

With ``--trace 0`` one client runs ``python -m twinwidth.cli`` ops one at a
time (a closed loop) against ``src/`` and reports end-to-end metrics.  With
``--trace 1`` the same ops run in this process, once plainly and once with
spans around every public entry point, and the per-layer metrics are
reported.  Every op's output is checked outside the timed region.  The last
line of standard output is one JSON object; ``--report`` runs every workload
both ways and prints every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from spans import LOAD_SPANS, Instrumentation, Tracer  # noqa: E402
from workloads import Op, Result, Stream  # noqa: E402

OP_TIMEOUT_S = 60
SETUP_REPEATS = 3  # set-up samples before the first op
SETUP_EVERY = 6  # and one more after every this many ops

END_TO_END = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# self-time spans reported per layer, and spans whose call counts are reported
SELF_TIME = (
    "solver.twinwidth_exact",
    "solver.twinwidth_greedy",
    "solver.verify_sequence",
    "trimatrix.matrix_twinwidth_exact",
    "trimatrix.find_mixed_minor",
    "ilrep.decode",
    "ilrep.build_ilmatrix",
    "ilrep.condense",
    "fologic.parse_formula",
    "fologic.rewrite",
    "fologic.evaluate",
    "fologic.modelcheck_pipeline",
    "fologic.modelcheck_direct",
    "obstruction.extract",
    "obstruction.check_exposes",
    "perturb.build_gadget",
    "perturb.verify_robustness",
    "perturb.find_homogeneous_set",
    "perturb.apply_perturbation",
    "graphs.is_isomorphic",
    "graphs.sequence_width",
    "cli.run",
)
CALLS = (
    "trimatrix.find_mixed_minor",
    "ilrep.decode",
    "ilrep.build_ilmatrix",
    "ilrep.condense",
    "fologic.parse_formula",
    "fologic.rewrite",
    "fologic.evaluate",
    "obstruction.check_exposes",
    "perturb.find_homogeneous_set",
    "perturb.apply_perturbation",
    "graphs.is_isomorphic",
)
# counts that depend only on the inputs; they must repeat exactly
DETERMINISTIC = (
    "solver.nodes_explored",
    "trimatrix.matrix_nodes_explored",
    "perturb.scripts_tested",
    "ilrep.unify.calls",
    "emit.bytes",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SELF_TIME}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({name: "count" for name in DETERMINISTIC})
    units.update(
        {
            "load.self_s": "s",
            "trimatrix.find_mixed_minor.found_ratio": "ratio",
            "ilrep.unify.legal_ratio": "ratio",
            "perturb.scripts_per_s": "1/s",
            "trace.overhead": "ratio",
        }
    )
    return units


# ---------------------------------------------------------------------------
# outcome of one op


def classify(op: Op, res: Result) -> tuple[str, str | None]:
    """("ok" | "defect" | "failed", reason).

    Every op is expected to exit 0 with output that passes its check.  An
    op may instead hit the known defect it names (exit 1 with that
    diagnostic); a traceback is always a failure.
    """
    if res.code == "traceback" or "Traceback" in res.stderr:
        return "failed", "traceback: " + res.stderr.strip().splitlines()[-1][:200]
    if op.defect and res.code == 1 and res.stderr.startswith(op.defect):
        return "defect", res.stderr.strip()
    if res.code != 0:
        return "failed", f"exit {res.code}: {res.stderr.strip()[:200]}"
    try:
        reason = op.check(res)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reason = f"unreadable output ({type(exc).__name__}: {exc})"
    return ("failed", reason) if reason else ("ok", None)


def quantile(values: list[float], q: float) -> float:
    """Quantile with linear interpolation between ranks, as statistics.quantiles'
    inclusive method gives it; infinite values rank last."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    if lo == pos or math.isinf(xs[lo + 1]):
        return xs[lo] if lo == pos else math.inf
    return xs[lo] + (pos - lo) * (xs[lo + 1] - xs[lo])


# ---------------------------------------------------------------------------
# end to end: one subprocess per op


class Client:
    """Runs ops one at a time through the launcher process."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=root,
            env=env,
            text=True,
        )
        self.peak_rss_kb = 0

    def run(self, argv: list[str], tag: str) -> tuple[Result, float]:
        out_path = self.workdir / f"{tag}.out"
        err_path = self.workdir / f"{tag}.err"
        request = [[sys.executable, "-m", "twinwidth.cli", *argv], str(out_path), str(err_path), OP_TIMEOUT_S]
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        code, elapsed, rss_kb = json.loads(reply)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        result = Result(code, out_path.read_text(), err_path.read_text())
        out_path.unlink()
        err_path.unlink()
        return result, elapsed

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=OP_TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()


def end_to_end(workload: str, seed: int, seconds: float, root: Path, workdir: Path) -> dict:
    client = Client(root, workdir)
    try:
        return _end_to_end(client, workload, seed, seconds, workdir)
    finally:
        client.close()


def _end_to_end(client: Client, workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Rounds of the workload's op list until --seconds have passed.

    Every round runs every op chain once, in a fresh order, so each op's
    samples are spread over the run.  An op's latency is the median of its
    samples, and the percentiles are taken over the ops: the mix is the same
    for every run, whatever number of rounds fits.  The first round always
    completes.
    """
    client.run(["--help"], "warm")  # writes the bytecode cache
    # set-up samples are spread over the run, so a slow phase of the machine
    # weighs on them no more than on the ops
    setup = [client.run(["--help"], "setup")[1] for _ in range(SETUP_REPEATS)]

    ops = Stream(workload, seed, workdir).ops()
    order = random.Random(f"order-{workload}-{seed}")
    samples: dict[tuple[int, int], list[float]] = {}
    # an op whose argv and output were checked once gets the same verdict again
    verdicts: dict[tuple[int, int], tuple[tuple[list[str], Result], str, str | None]] = {}
    outcomes = {"ok": 0, "defect": 0, "failed": 0}
    failures: list[str] = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        chains = list(range(len(ops)))
        order.shuffle(chains)
        for i in chains:
            if rounds and time.perf_counter() - start >= seconds:
                break
            op, step = ops[i], 0
            while op is not None:
                res, elapsed = client.run(op.argv, "op")
                seen = verdicts.get((i, step))
                if seen and seen[0] == (op.argv, res):
                    status, reason = seen[1:]
                else:
                    status, reason = classify(op, res)
                    verdicts[(i, step)] = ((op.argv, res), status, reason)
                outcomes[status] += 1
                samples.setdefault((i, step), []).append(elapsed if status == "ok" else math.inf)
                if status == "failed":
                    failures.append(f"{op.kind} {' '.join(op.argv)}: {reason}")
                op = op.followup(res) if op.followup and status == "ok" else None
                step += 1
                if sum(outcomes.values()) % SETUP_EVERY == 0:
                    setup.append(client.run(["--help"], "setup")[1])
        rounds += 1

    per_op = [statistics.median(xs) for xs in samples.values()]
    return {
        "attempted": sum(outcomes.values()),
        "failed": outcomes["failed"],
        "defect": outcomes["defect"],
        "failures": failures,
        "rounds": rounds,
        "ops": len(per_op),
        "failing_ops": sum(1 for x in per_op if math.isinf(x)),
        "metrics": {
            "latency_p50_s": quantile(per_op, 0.5),
            "latency_p90_s": quantile(per_op, 0.9),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": client.peak_rss_kb / 1024,
        },
    }


# ---------------------------------------------------------------------------
# per layer: the same ops in process, plain and traced


def run_in_process(cli, op: Op) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught error is a failed op, reported below
            traceback.print_exc()
            code = "traceback"
    return Result(code, out.getvalue(), err.getvalue())


def traced(workload: str, seed: int, seconds: float, root: Path, workdir: Path) -> dict:
    """The workload's ops in process, each op chain plain and traced back to back.

    Running the two versions of a chain next to each other, in alternating
    order, keeps the machine's slow and fast phases out of trace.overhead.
    """
    sys.path.insert(0, str(root / "src"))
    from twinwidth import cli

    ops = Stream(workload, seed, workdir).ops()
    instrumentation = Instrumentation()
    totals = {"ok": 0, "defect": 0, "failed": 0}
    failures: list[str] = []

    def run_chain(op: Op) -> tuple[float, int]:
        wall, emitted = 0.0, 0
        while op is not None:
            start = time.perf_counter()
            res = run_in_process(cli, op)
            wall += time.perf_counter() - start
            status, reason = classify(op, res)
            totals[status] += 1
            if status == "failed":
                failures.append(f"{op.kind} {' '.join(op.argv)}: {reason}")
            emitted += len(res.stdout.encode())
            op = op.followup(res) if op.followup and status == "ok" else None
        return wall, emitted

    def run_traced(op: Op, tracer: Tracer) -> float:
        instrumentation.install(tracer)
        try:
            wall, emitted = run_chain(op)
        finally:
            instrumentation.remove()
        tracer.count("emit.bytes", emitted)
        return wall

    start = time.perf_counter()
    for op in ops:  # warm-up: imports, allocator and caches settle before timing
        run_chain(op)
    rounds: list[dict] = []
    # at least two rounds, and no round that would end past --seconds
    round_s = 0.0
    while len(rounds) < 2 or time.perf_counter() - start + round_s < seconds:
        round_start = time.perf_counter()
        tracer = Tracer()
        plain = traced_wall = 0.0
        for i, op in enumerate(ops):
            if (i + len(rounds)) % 2:
                traced_wall += run_traced(op, tracer)
                plain += run_chain(op)[0]
            else:
                plain += run_chain(op)[0]
                traced_wall += run_traced(op, tracer)
        rounds.append(layer_metrics(tracer, traced_wall / plain))
        round_s = time.perf_counter() - round_start

    unsteady = [name for name in DETERMINISTIC if len({r[name] for r in rounds}) != 1]
    if unsteady:
        failures.append(f"counts differ between rounds: {unsteady}")
    spans_path = root / ".bench_work" / f"spans-{workload}-{seed}.jsonl"
    with open(spans_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "attempted": sum(totals.values()),
        "failed": totals["failed"],
        "defect": totals["defect"],
        "failures": failures,
        "unsteady": unsteady,
        "rounds": len(rounds),
        "metrics": {name: statistics.median(r[name] for r in rounds) for name in rounds[0]},
    }


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    self_t = tracer.self_times()
    total_t = tracer.total_times()
    calls = tracer.calls()
    counts = tracer.counts
    m: dict[str, float] = {f"{n}.self_s": self_t.get(n, 0.0) for n in SELF_TIME}
    m.update({f"{n}.calls": calls.get(n, 0) for n in CALLS})
    m.update({n: counts.get(n, 0) for n in DETERMINISTIC})
    m["load.self_s"] = sum(self_t.get(n, 0.0) for n in LOAD_SPANS)
    mm_calls = calls.get("trimatrix.find_mixed_minor", 0)
    m["trimatrix.find_mixed_minor.found_ratio"] = counts.get("trimatrix.find_mixed_minor.found", 0) / mm_calls if mm_calls else 0.0
    unify = counts.get("ilrep.unify.calls", 0)
    m["ilrep.unify.legal_ratio"] = counts.get("ilrep.unify.legal", 0) / unify if unify else 0.0
    busy = total_t.get("perturb.verify_robustness", 0.0)
    m["perturb.scripts_per_s"] = counts.get("perturb.scripts_tested", 0) / busy if busy else 0.0
    m["trace.overhead"] = overhead
    return m


# ---------------------------------------------------------------------------
# entry points


def run_one(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    workdir = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return traced(workload, seed, seconds, root, workdir)
        return end_to_end(workload, seed, seconds, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def fail_rate(out: dict, trace: bool) -> float:
    """Share of ops that failed or hit the known defect.

    End to end it is counted over the op list, so every run of a seed gives
    the same share whatever number of rounds fits.
    """
    if trace:
        return (out["failed"] + out["defect"]) / out["attempted"]
    return out["failing_ops"] / out["ops"]


def summary(workload: str, out: dict, trace: bool) -> str:
    if trace:
        text = f"# {workload}: traced, {out['rounds']} rounds, {out['attempted']} ops"
    else:
        text = f"# {workload}: end-to-end, {out['rounds']} rounds of {out['ops']} ops, {out['attempted']} samples"
    return text + (
        f", failed {out['failed']}, known-defect {out['defect']}, fail_rate {fail_rate(out, trace):.4f}"
    )


def report(seed: int, seconds: float, root: Path) -> int:
    units_e2e = dict(END_TO_END, fail_rate="ratio")
    units_layer = per_layer_units()
    table: dict[str, dict] = {}
    ok = True
    for workload in workloads.WORKLOADS:
        e2e = run_one(workload, seed, seconds, False, root)
        layer = run_one(workload, seed, seconds, True, root)
        e2e["metrics"]["fail_rate"] = fail_rate(e2e, False)
        ok = ok and not e2e["failed"] and not layer["failed"]
        table[workload] = {"samples": e2e["attempted"], "e2e": e2e, "layer": layer}
        print(summary(workload, e2e, False))
        print(summary(workload, layer, True))
        for line in e2e["failures"] + layer["failures"]:
            print(f"#   {line}")
    names = list(workloads.WORKLOADS)
    print(f"\n{'metric':46} {'unit':6} " + " ".join(f"{n:>12}" for n in names))
    print(f"{'samples (op runs per end-to-end run)':46} {'count':6} " + " ".join(f"{table[n]['samples']:>12}" for n in names))
    for section, units in (("e2e", units_e2e), ("layer", units_layer)):
        for metric, unit in units.items():
            row = " ".join(f"{table[n][section]['metrics'][metric]:>12.6g}" for n in names)
            print(f"{metric:46} {unit:6} {row}")
    print(json.dumps({n: {"samples": table[n]["samples"], "e2e": table[n]["e2e"]["metrics"],
                          "per_layer": table[n]["layer"]["metrics"]} for n in names}))
    return 0 if ok else 1


def _finite(value: float) -> float | None:
    """A quantile is infinite once enough ops fail; JSON has no infinity."""
    return value if math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="run every workload both ways and print all metrics")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "twinwidth" / "cli.py").is_file():
        print(f"error: no twinwidth sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    if args.report:
        return report(args.seed, args.seconds, root)
    if args.workload is None:
        parser.error("--workload is required without --report")

    out = run_one(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(summary(args.workload, out, bool(args.trace)))
    for line in out["failures"]:
        print(f"#   {line}")
    units = per_layer_units() if args.trace else END_TO_END
    result = {
        "correct": out["failed"] == 0 and not out.get("unsteady"),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": _finite(out["metrics"][name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
