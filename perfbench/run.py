"""Seeded end-to-end and per-layer benchmark of the imsolve library.

    python3 perfbench/run.py --workload gnp_mixed --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
process, one client, closed loop: each op starts when the previous one has
been answered and checked.  An op parses an instance and solves it the way
``imsolve solve`` / ``solve-tg`` do, or decomposes a graph and computes a
maximum matching the way ``imsolve decompose`` does.

``--trace 0`` sets the workload up several times (``setup_s`` is the median),
then runs whole rounds of ops until ``--seconds`` have passed and at least
``MIN_OPS`` ops ran, and reports the end-to-end metrics.  ``--trace 1``
sets up once (traced, for the set-up layers), runs each op of the first
rounds untraced and then traced (spans around each layer's public
functions, see ``spans.py``), then once more with the solver's own trace
stream, which gives the exact counts and the behaviour digests.  It reports
the per-layer metrics.

Every op's output is checked outside the timed region; a run with a wrong
answer, an invalid certificate or an exception exits 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "imsolve" / "__init__.py").is_file():
    sys.exit(f"error: no imsolve sources under {ROOT / 'src'}; run from a checkout")
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100  # so solve_s_p90 has at least ten samples beyond it
# Set-up is repeated until it has taken SETUP_MIN_S (at least SETUP_MIN_REPEATS
# times); setup_s is the median, so a short stall of the machine does not show.
SETUP_MIN_S = 1.5
SETUP_MIN_REPEATS = 3
PRIMARY_KINDS = ("auto", "decompose")
KERNEL_RULES = ("isolated-vertex", "isolated-edge", "pendant-triangle")
BRANCH_RULES = ("c-vertex", "a-edge", "triangle", "triangle-star", "four-path", "degree-two")

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s_p50", "s"),
    ("solve_s_p90", "s"),
    ("solves_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    tuple(
        (f"{name}.{stat}", unit)
        for name in spans.TRACED_NAMES
        for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
    )
    + tuple((f"kernel.steps.{rule}", "count") for rule in KERNEL_RULES)
    + tuple((f"solver.branchings.{rule}", "count") for rule in BRANCH_RULES)
    + (
        ("solver.nodes", "count"),
        ("solver.max_depth", "count"),
        ("solver.tg_nodes", "count"),
        ("solver.final_iteration_node_share", "fraction"),
        ("yes_s_p50", "s"),
        ("no_s_p50", "s"),
        ("tg_s_p50", "s"),
        ("trace_overhead_frac", "fraction"),
        ("answers_digest", "sha256_48"),
        ("search_digest", "sha256_48"),
    )
)


class Failures:
    """Ops attempted and what went wrong with them."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, op, out):
        self.attempted += 1
        if isinstance(out, Exception):
            self.problems.append(f"{op.key}: {type(out).__name__}: {out}")
            return
        problem = workloads.check(op, out)
        if problem:
            self.problems.append(problem)


def _run_timed(op, tracer=None):
    """``(output or exception, seconds)``; only the op itself is timed."""
    t0 = perf_counter()
    try:
        if tracer is None:
            out = workloads.run_op(op)
        else:
            out = tracer.call("op", workloads.run_op, op)
    except Exception as exc:  # a failing op is counted, not fatal
        out = exc
    return out, perf_counter() - t0


def _p50(values):
    return statistics.median(values) if values else 0.0


def _seconds_by_kind(samples):
    """p50 op seconds for solve_auto YES / NO and for solve_imbtg ops."""
    auto = [(op.expected, t) for op, t in samples if op.kind == "auto"]
    return {
        "yes_s_p50": _p50([t for e, t in auto if e == "yes"]),
        "no_s_p50": _p50([t for e, t in auto if e == "no"]),
        "tg_s_p50": _p50([t for op, t in samples if op.kind == "tg"]),
    }


def measure_end_to_end(name, seed, seconds, failures, smoke=False):
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_S:
        rounds = None  # free the previous set-up first, so it does not add to peak memory
        t0 = perf_counter()
        rounds = workloads.build(name, seed, smoke)
        setup_times.append(perf_counter() - t0)
    gc.collect()
    min_ops = 1 if smoke else MIN_OPS
    samples = []  # (op, seconds)
    checking = 0.0  # each output is checked, untimed, as soon as the op returns
    start = perf_counter()
    r = 0
    while True:
        for op in rounds[r % len(rounds)]:
            out, t = _run_timed(op)
            t_check = perf_counter()
            failures.check(op, out)
            checking += perf_counter() - t_check
            samples.append((op, t))
        r += 1
        if perf_counter() - start - checking >= seconds and len(samples) >= min_ops:
            break
    wall = perf_counter() - start - checking
    primary = [t for op, t in samples if op.kind in PRIMARY_KINDS]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "solve_s_p50": statistics.median(primary),
        "solve_s_p90": (
            statistics.quantiles(primary, n=10)[8] if len(primary) > 1 else primary[0]
        ),
        "solves_per_s": len(samples) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "ops": len(samples),
        "primary_ops": len(primary),
        "rounds": r,
        "wall_s": wall,
        "checking_s": checking,
        **_seconds_by_kind(samples),
    }
    return metrics, notes


def _paired_passes(ops, tracer, failures):
    """Each op untraced, then traced: the overhead ratio compares warm runs
    of the same ops at the same moment."""
    plain, traced = [], []
    gc.collect()
    for op in ops:
        out, t = _run_timed(op)
        failures.check(op, out)
        plain.append((op, t))
        with spans.installed(tracer):
            out, t = _run_timed(op, tracer)
        failures.check(op, out)
        traced.append((op, t))
    return plain, traced


def _digest(text: str):
    full = hashlib.sha256(text.encode()).hexdigest()
    return int(full[:12], 16), full


def _behaviour_pass(ops, failures):
    """Exact counts and digests from one pass with the solver's trace stream.

    ``answers`` holds what every op decided; ``search`` adds certificates,
    ``SearchStats`` and the trace stream, which a pure refactor keeps
    byte-identical.
    """
    counts = {f"kernel.steps.{rule}": 0 for rule in KERNEL_RULES}
    counts.update({f"solver.branchings.{rule}": 0 for rule in BRANCH_RULES})
    counts.update({"solver.nodes": 0, "solver.max_depth": 0, "solver.tg_nodes": 0})
    final_nodes = 0
    answers, search = [], []
    for op in ops:
        lines = []
        try:
            out = workloads.run_op(op, trace=lines.append)
        except Exception as exc:
            failures.check(op, exc)
            continue
        failures.check(op, out)
        if op.kind == "decompose":
            dec, matching = out
            answers.append(
                f"{op.key} nu={len(matching)} d={sorted(dec.d)} a={sorted(dec.a)}"
            )
            search.append(
                f"{op.key} matching={sorted(matching)} "
                f"components={[sorted(c) for c in dec.d_components]}"
            )
            continue
        stats = out.stats
        answers.append(f"{op.key} {out.answer.value}")
        doc = {
            "nodes_visited": stats.nodes_visited,
            "max_depth": stats.max_depth,
            "branchings_by_rule": stats.branchings_by_rule,
            "reductions_by_rule": stats.reductions_by_rule,
        }
        cert = sorted(out.certificate) if out.certificate is not None else None
        search.append(f"{op.key} {out.answer.value} {cert} {json.dumps(doc, sort_keys=True)}")
        search.extend(lines)
        if op.kind == "tg":
            counts["solver.tg_nodes"] += stats.nodes_visited
            continue
        counts["solver.nodes"] += stats.nodes_visited
        counts["solver.max_depth"] = max(counts["solver.max_depth"], stats.max_depth)
        for rule, k in stats.branchings_by_rule.items():
            if rule in BRANCH_RULES:
                counts[f"solver.branchings.{rule}"] += k
        for rule, k in stats.reductions_by_rule.items():
            if rule in KERNEL_RULES:
                counts[f"kernel.steps.{rule}"] += k
        # One trace record per node; each deepening iteration starts at depth 0.
        depths = [json.loads(line)["depth"] for line in lines]
        last_root = max(i for i, d in enumerate(depths) if d == 0)
        final_nodes += len(depths) - last_root
    nodes = counts["solver.nodes"]
    counts["solver.final_iteration_node_share"] = final_nodes / nodes if nodes else 0.0
    answers_digest, answers_hex = _digest("\n".join(answers))
    search_digest, search_hex = _digest("\n".join(search))
    counts["answers_digest"] = answers_digest
    counts["search_digest"] = search_digest
    return counts, {"answers_digest": answers_hex, "search_digest": search_hex}


def measure_per_layer(name, seed, failures, smoke=False):
    rounds = workloads.build(name, seed, smoke)
    ops = [op for rnd in rounds[: workloads.WORKLOADS[name].trace_rounds] for op in rnd]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        tracer.call("setup", workloads.build, name, seed, smoke)
    plain, traced = _paired_passes(ops, tracer, failures)
    plain_s = sum(t for _, t in plain)
    traced_s = sum(t for _, t in traced)
    metrics = {}
    summary = tracer.summary()
    for span in spans.TRACED_NAMES:
        row = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for stat in ("calls", "total_s", "self_s"):
            metrics[f"{span}.{stat}"] = row[stat]
    counts, digests = _behaviour_pass(ops, failures)
    metrics.update(counts)
    metrics.update(_seconds_by_kind(plain))
    metrics["trace_overhead_frac"] = traced_s / plain_s - 1.0
    notes = {"ops": len(ops), "untraced_s": plain_s, "traced_s": traced_s, **digests}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    failures = Failures()
    if args.trace:
        metrics, notes = measure_per_layer(args.workload, args.seed, failures)
        units = dict(PER_LAYER)
    else:
        metrics, notes = measure_end_to_end(args.workload, args.seed, args.seconds, failures)
        units = dict(END_TO_END)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for key, unit in units.items():
        print(f"  {key} = {metrics[key]} {unit}")
    failed = len(failures.problems)
    print(f"  failed_frac = {failed / max(failures.attempted, 1)}")
    for problem in failures.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": failures.attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
