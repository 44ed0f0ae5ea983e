"""End-to-end benchmark of the qdulac command line.

    python3 perfbench/run.py --workload deep-log --seed 1 --seconds 20 --trace 0

Run from the repository root.  One client drives a closed loop: each op
calls `qdulac.cli.main(argv)` in-process with `--format json` and stdout
captured, running the workload's commands on one generated equation, and
the next op starts when the previous one returns.  Ops cycle through the
seeded case pool (workloads.py); the run stops at the first cycle
boundary after `--seconds`, once at least MIN_OPS ops have run.

Every op is checked untimed: exit code, JSON schema, planted (c, r),
verify passing, byte-identical output on repeated input, a per-op
timeout, and the sympy residual oracle (oracle.py) on each distinct
expansion.

Times are rescaled to nominal machine speed with a reference loop
sampled during the ops (speed.py).  With `--trace 0` the last stdout
line holds the end-to-end metrics; with `--trace 1` every other op runs
with spans recorded around the program's public functions (spans.py),
the line holds the per-layer metrics, and the spans are written to
perfbench/out/.  Lines before it give the run record and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from spans import Tracer
from speed import KINDS, NOMINAL_REF_S, Sampler
from workloads import MAIN_QDE, REFERENCE_KINDS, WORKLOADS, rat

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# op_s.tail needs ten samples beyond it; with 16 it is no longer the
# second-fastest op, which made it the least steady metric of deep-log
MIN_OPS = 16
OP_TIMEOUT_S = 20
HARD_LIMIT_S = 110  # no op starts later than this into the measured loop
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "expand_s.p50": "s",
    "verify_s.p50": "s",
    "truncate_s.p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Setup: the import every CLI invocation pays, in a fresh interpreter,
# then the reference loops in the same interpreter for rescaling.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import qdulac.cli
spent = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import speed
print(spent, speed.reference_scale(speed.KINDS))
"""


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so the CLI cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def measure_setup() -> list:
    """Rescaled seconds of `import qdulac.cli` in fresh interpreters; the
    first, which may compile bytecode, is discarded."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        spent, scale = (float(v) for v in done.stdout.split())
        samples.append(spent * scale)
    return samples[1:]


def tail(values: list) -> tuple:
    """(value, percentile): the largest sample with ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# -- one op


def command_argv(case, eq_path: str, command: str) -> list:
    argv = [command, "--eq", eq_path, "--format", "json"]
    if case.params:
        argv += ["--params", ",".join(case.params)]
    if command == "polygon":
        return argv
    argv += ["--q", rat(case.q), "--face", case.face]
    # the = form keeps argparse from reading "-1/2" as an option
    if case.c_opt:
        argv.append(f"--c={case.c_opt}")
    if case.r_opt:
        argv.append(f"--r={case.r_opt}")
    if command in ("expand", "verify"):
        argv.append(f"--kmax={rat(case.kmax)}")
    if command == "verify":
        argv.append(f"--assign={case.assign}")
    return argv


def run_command(cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails the op, not the benchmark
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def run_op(cli, case, eq_path: str) -> dict:
    """Run every command of the case once, under one timeout."""
    op = {"spans": {}, "outputs": {}, "problems": []}
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    op["start"] = time.perf_counter()
    try:
        for command in case.commands:
            start = time.perf_counter()
            code, out, err = run_command(cli, command_argv(case, eq_path, command))
            op["spans"][command] = (start, time.perf_counter())
            op["outputs"][command] = out
            if code != 0:
                op["problems"].append(f"{command}: exit {code}: {err.strip()[:200]}")
                break
    except OpTimeout:
        op["problems"].append(f"timeout after {OP_TIMEOUT_S} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        op["end"] = time.perf_counter()
    return op


# -- untimed output checks


def _poly_dict(entries) -> dict:
    return {
        tuple(sorted((name, int(e)) for name, e in entry["monomial"].items())):
        Fraction(entry["coef"])
        for entry in entries
    }


def check_outputs(cli, cases, outputs: dict) -> dict:
    """Problems per case index from schema, planted (c, r), verify and the
    sympy oracle, over the first output of every (case, command)."""
    import jsonschema

    from oracle import residual_failures

    schemas = {
        "polygon": cli.POLYGON_SCHEMA,
        "truncate": cli.TRUNCATE_SCHEMA,
        "expand": cli.EXPAND_SCHEMA,
        "verify": cli.VERIFY_SCHEMA,
    }
    problems: dict = {}
    for (index, command), text in outputs.items():
        case = cases[index]
        found = problems.setdefault(index, [])
        try:
            doc = json.loads(text)
            jsonschema.validate(doc, schemas[command])
        except (ValueError, jsonschema.ValidationError) as err:
            found.append(f"{command}: invalid JSON output: {str(err)[:200]}")
            continue
        if command == "truncate":
            planted = [
                cand for face in doc["faces"] for cand in face["candidates"]
                if _poly_dict(cand["c"]) == case.c and Fraction(cand["r"]) == case.r
            ]
            if not planted:
                found.append("truncate: planted (c, r) not among the candidates")
        elif command == "expand":
            if _poly_dict(doc["c"]) != case.c or Fraction(doc["r"]) != case.r:
                found.append("expand: expanded around another (c, r)")
            bad = residual_failures(case.dsl, case.params, doc, case.kmax)
            if bad:
                found.append(f"expand: oracle residual nonzero at x^{bad[0]}")
        elif command == "verify" and doc["pass"] is not True:
            found.append("verify: residual check did not pass")
    return problems


# -- per-layer metrics from spans


def layer_metrics(tracer, n_ops: int, traced_s: float, scale: float) -> dict:
    """Per-op self and inclusive times and call counts from the spans,
    less the time the speed sampler took inside them."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    stolen = [span[5] for span in spans]
    for i in range(len(spans) - 1, -1, -1):  # children follow their parent
        name, start, end, parent, _, _ = spans[i]
        if parent >= 0:
            child[parent] += end - start
            stolen[parent] += stolen[i]
    self_s: dict = {}
    incl_s: dict = {}
    calls: dict = {}
    for i, (name, start, end, parent, _, own_stolen) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[i] - own_stolen)
        calls[name] = calls.get(name, 0) + 1
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:  # not nested in a call of the same function
            incl_s[name] = incl_s.get(name, 0.0) + (end - start - stolen[i])
    out: dict = {}

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}  # None: span missing

    def per_op(table, name, timed=True):
        if name not in table:
            return None
        return table[name] / n_ops * (scale if timed else 1.0)

    evaluate = "qexpr.evaluate_on_series"
    put(f"{evaluate}.self_s", per_op(self_s, evaluate), "s/op")
    put(f"{evaluate}.calls", per_op(calls, evaluate, timed=False), "calls/op")
    put(f"{evaluate}.terms_returned",
        tracer.terms_returned / n_ops if evaluate in calls else None, "terms/op")
    put(f"{evaluate}.useful_frac",
        tracer.reads_by_expand / tracer.terms_to_expand if tracer.terms_to_expand else None,
        "frac")
    put(f"{evaluate}.op_frac",
        self_s[evaluate] / traced_s if evaluate in self_s else None, "frac")
    number_theory = ("algebra.rational_roots", "algebra.q_pow", "algebra.q_log")
    put("algebra.number_theory.op_frac",
        sum(incl_s.get(name, 0.0) for name in number_theory) / traced_s, "frac")
    for name in number_theory:
        put(f"{name}.s", per_op(incl_s, name), "s/op")
        put(f"{name}.calls", per_op(calls, name, timed=False), "calls/op")
    put("parser.parse_equation.s", per_op(incl_s, "parser.parse_equation"), "s/op")
    put("polygon.build_polygon.s", per_op(incl_s, "polygon.build_polygon"), "s/op")
    put("truncate.analyze_face.self_s", per_op(self_s, "truncate.analyze_face"), "s/op")
    put("cli.main.self_s", per_op(self_s, "cli.main"), "s/op")
    for fn in ("expand_solution", "solve_poly_difference", "verify_residual"):
        put(f"expand.{fn}.self_s", per_op(self_s, f"expand.{fn}"), "s/op")
    for fn in ("extract_linear_part", "critical_numbers", "k_lattice", "degree_bound"):
        put(f"expand.{fn}.s", per_op(incl_s, f"expand.{fn}"), "s/op")
    out.update(expansion_counts(tracer.expansions))
    return out


def expansion_counts(results: list) -> dict:
    """Mean size of the ExpansionResults expand_solution returned."""
    names = ("expand.k_count", "expand.max_log_degree", "expand.constants",
             "expand.param_terms")
    try:
        rows = [
            (
                len(res.k_set),
                max((beta.degree() for _, beta in res.series.terms), default=0),
                len(res.constants_introduced),
                sum(len(list(c.items())) for _, beta in res.series.terms
                    for c in beta.coeffs),
            )
            for res in results
        ]
    except AttributeError:  # the result type changed shape
        rows = []
    if not rows:
        return {name: {"value": None, "unit": "count"} for name in names}
    return {
        name: {"value": statistics.fmean(col), "unit": "count"}
        for name, col in zip(names, zip(*rows))
    }


def microbenchmarks(cli, expand_json: str, scale: float) -> dict:
    """Per-call microseconds of the algebra layer on operands taken from the
    deep-log expansion: its last two betas and their largest coefficients."""
    series = cli.series_from_json(json.loads(expand_json))
    (_, a), (_, b) = series.terms[-1], series.terms[-2]
    pa = max(a.coeffs, key=lambda c: len(list(c.items())))
    pb = max(b.coeffs, key=lambda c: len(list(c.items())))
    cases = {
        "algebra.tpoly_mul.us": lambda: a * b,
        "algebra.tpoly_shift.us": lambda: a.shift(1),
        "algebra.parampoly_mul.us": lambda: pa * pb,
        "algebra.parampoly_add.us": lambda: pa + pb,
    }
    out = {}
    for name, fn in cases.items():
        calls = 1
        while True:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            if time.perf_counter() - start >= 0.005:
                break
            calls *= 2
        batches = []
        for _ in range(9):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            batches.append((time.perf_counter() - start) / calls)
        out[name] = {"value": statistics.median(batches) * 1e6 * scale, "unit": "us"}
    return out


# -- the run


def measure(cli, cases, paths, seconds, sampler, tracer) -> tuple:
    """The closed loop; returns the ops and the first output per (case,
    command), flagging outputs that differ on repeated input."""
    ops, first_out = [], {}
    start = time.perf_counter()
    sampler.start()
    try:
        while True:
            for index, case in enumerate(cases):
                if time.perf_counter() - start >= HARD_LIMIT_S:
                    return ops, first_out
                traced = tracer is not None and len(ops) % 2 == 1
                if traced:
                    tracer.install(len(ops))
                    sampler.on_sample = tracer.charge
                try:
                    op = run_op(cli, case, paths[index])
                finally:
                    if traced:
                        sampler.on_sample = None
                        tracer.remove()
                op["case"], op["traced"] = index, traced
                for command, out in op.pop("outputs").items():
                    key = (index, command)
                    if key not in first_out:
                        first_out[key] = out
                    elif first_out[key] != out:
                        op["problems"].append(f"{command}: output differs on repeated input")
                    op["bytes"] = op.get("bytes", 0) + len(out.encode())
                ops.append(op)
            if time.perf_counter() - start >= seconds and len(ops) >= MIN_OPS:
                return ops, first_out
    finally:
        sampler.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qdulac" / "cli.py").is_file():
        print(f"error: no qdulac sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qdulac.cli as cli

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cases = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"))
    kinds = REFERENCE_KINDS[args.workload]
    setup = [] if args.trace else measure_setup()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        paths = []
        for i, case in enumerate(cases):
            path = workdir / f"case{i}.qde"
            path.write_text(case.dsl, encoding="utf-8")
            paths.append(str(path))
        sampler = Sampler()
        tracer = Tracer() if args.trace else None
        ops, first_out = measure(cli, cases, paths, args.seconds, sampler, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        post = check_outputs(cli, cases, first_out)
        failed_ops = {}
        for i, op in enumerate(ops):
            problems = op["problems"] + post.get(op["case"], [])
            if problems:
                failed_ops[i] = problems

        # wall time less the sampler's share, at nominal speed around the op
        # or command
        for op in ops:
            op["raw_s"] = op["end"] - op["start"] - sampler.stolen(op["start"], op["end"])
            op["s"] = op["raw_s"] * sampler.scale(kinds, op["start"], op["end"])
            op["command_s"] = {
                command: (end - begin - sampler.stolen(begin, end))
                * sampler.scale(kinds, begin, end)
                for command, (begin, end) in op["spans"].items()
            }
        run_means = sampler.means(sampler.starts[0], sampler.starts[-1] + 1.0)
        ref_s = sum(run_means[k] for k in kinds)
        run_scale = sum(NOMINAL_REF_S[k] for k in kinds) / ref_s

        untraced = [op for op in ops if not op["traced"]]
        op_s = [op["s"] for op in untraced]
        tail_value, tail_pct = tail(op_s)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "reference_loops": kinds,
            "reference_raw_s": run_means,
            "reference_nominal_s": NOMINAL_REF_S,
            "ref_samples": len(sampler.starts),
            "cases": len(cases),
            "ops": len(ops),
            "untraced_ops": len(untraced),
            "op_s.tail_percentile": round(tail_pct, 2),
            "fail_frac": len(failed_ops) / len(ops),
        }
        if args.trace:
            traced = [op for op in ops if op["traced"]]
            expand_json = first_out.get((0, "expand")) if args.workload == "deep-log" else None
            if expand_json is None:
                deep_path = workdir / "main.qde"
                deep_path.write_text(MAIN_QDE, encoding="utf-8")
                _, expand_json, _ = run_command(
                    cli, ["expand", "--eq", str(deep_path), "--params", "a3,a4",
                          "--q", "1/2", "--face", "(0,3)-(0,2)", "--kmax", "8",
                          "--format", "json"])
            traced_s = sum(op["raw_s"] for op in traced)
            metrics = layer_metrics(tracer, len(traced), traced_s, run_scale)
            # the microbenchmarks are Fraction and dict work: all three loops
            algebra_scale = sum(NOMINAL_REF_S[k] for k in KINDS) / sum(run_means.values())
            metrics.update(microbenchmarks(cli, expand_json, algebra_scale))
            metrics["cli.output_bytes"] = {
                "value": statistics.fmean(op.get("bytes", 0) for op in ops),
                "unit": "B/op",
            }
            metrics["bench.ref_loop_s"] = {"value": ref_s, "unit": "s"}
            untraced_p50 = statistics.median(op_s)
            metrics["bench.trace_overhead_frac"] = {
                "value": statistics.median(op["s"] for op in traced) / untraced_p50 - 1.0,
                "unit": "frac",
            }
            record["missing"] = sorted(n for n, m in metrics.items() if m["value"] is None)
            spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
            spans_path.write_text(json.dumps({"record": record, "spans": tracer.spans}))
        else:
            def p50(command):
                return statistics.median(op["command_s"].get(command, 0.0) for op in untraced)

            values = {
                "setup_s": statistics.median(setup),
                "op_s.p50": statistics.median(op_s),
                "op_s.tail": tail_value,
                "expand_s.p50": p50("expand"),
                "verify_s.p50": p50("verify"),
                "truncate_s.p50": p50("truncate"),
                "ops_per_s": len(op_s) / sum(op_s),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {
                name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in values.items()
            }
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)

    for i, problems in sorted(failed_ops.items())[:20]:
        print(f"FAILED op {i} ({cases[ops[i]['case']].name}): {'; '.join(problems)}")
    print("record: " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        value = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:45s} {value:>14s} {m['unit']}")
    print(json.dumps({
        "correct": not failed_ops,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
