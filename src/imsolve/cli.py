"""Command-line front end.

    imsolve solve instance.im [--budget N | --oracle-k] [--json]
    imsolve solve-tg instance.im
    imsolve oracle instance.im [--ell N]
    imsolve decompose instance.im
    imsolve classify instance.im
    imsolve gen "random:n=8,p=0.5" --seed 1 --ell 2
    imsolve reduce-ds instance.im [--ell N]
    imsolve reduce-mis instance.im --cliques "1,2;3,4"
    imsolve bench directory/

Exit codes separate "the tool ran" from "the answer": 0 on success, 2 on
usage or parse errors, 3 when a cap was exceeded or a fixed-budget solve
ended without a definitive answer.  ``--answer-status`` remaps a definitive
answer onto the exit code (yes -> 0, no -> 1) for scripting.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import IMSolveError, InvalidSpecError, TooLargeError
from .gallai_edmonds import audit, decompose
from .graph import sort_labels
from .instances import (
    generate,
    read_instance,
    reduce_dominating_set,
    reduce_multicolored_is,
    write_instance,
)
from .kernel import Instance
from .oracle import (
    DEFAULT_CAP,
    brute_is,
    brute_mm,
    classify_tight,
    parameters,
    recognize_cameron_walker,
)
from .solver import Answer, SolveResult, solve_auto, solve_imba, solve_imbtg

EXIT_OK = 0
EXIT_ANSWER_NO = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imsolve",
        description="Exact induced-matching toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, cap=False):
        if cap:
            p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                           help="vertex cap for brute-force computations")
        p.add_argument("--json", action="store_true",
                       help="emit one JSON document instead of text")

    def add_solve_args(p):
        p.add_argument("path")
        p.add_argument("--ell", type=int, help="override the target from the header")
        p.add_argument("--trace", help="write one JSON line per search node here")
        p.add_argument("--answer-status", action="store_true",
                       help="exit 0 for yes, 1 for no")

    p = sub.add_parser("solve", help="run the decomposition-guided solver")
    add_solve_args(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--budget", type=int,
                      help="fixed branching budget; exhausted runs exit 3")
    mode.add_argument("--oracle-k", action="store_true",
                      help="budget from the oracle parameters (small inputs)")
    add_common(p, cap=True)

    p = sub.add_parser("solve-tg", help="run the simple cross-validation solver")
    add_solve_args(p)
    add_common(p)

    p = sub.add_parser("oracle", help="exact parameters by brute force")
    p.add_argument("path")
    p.add_argument("--ell", type=int)
    add_common(p, cap=True)

    p = sub.add_parser("decompose", help="Gallai-Edmonds decomposition + audit")
    p.add_argument("path")
    add_common(p)

    p = sub.add_parser("classify", help="structural classification")
    p.add_argument("path")
    add_common(p)

    p = sub.add_parser("gen", help="emit an instance file from a generator spec")
    p.add_argument("spec", help='e.g. "random:n=8,p=0.5" or "cw:u=2,w=2,nu=1,nw=1-2,tight"')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ell", type=int, default=1, help="target for the header")
    p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("reduce-ds", help="dominating-set reduction (edge subdivision)")
    p.add_argument("path")
    p.add_argument("--ell", type=int, help="dominating-set size (default: header ell)")
    p.add_argument("--out")

    p = sub.add_parser("reduce-mis", help="multicolored independent-set reduction")
    p.add_argument("path")
    p.add_argument("--cliques", required=True,
                   help="clique partition, e.g. '1,2;3,4' (header ell is ignored)")
    p.add_argument("--out")

    p = sub.add_parser("bench", help="solve every .im file in a directory")
    p.add_argument("directory")
    p.add_argument("--engine", choices=["auto", "tg"], default="auto")
    add_common(p)
    return parser


def _load(path, ell_override) -> Instance:
    text = Path(path).read_text()
    inst = read_instance(text)
    if ell_override is not None:
        inst = Instance(inst.graph, ell_override)
    return inst


def _emit(doc: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True, default=str))
    else:
        for line in lines:
            print(line)


def _certificate_doc(cert):
    if cert is None:
        return None
    return [list(pair) for pair in sorted(cert, key=lambda e: (str(e[0]), str(e[1])))]


def _open_trace(path):
    if path is None:
        return None, None
    handle = open(path, "w")
    return handle, lambda line: print(line, file=handle)


def _answer_exit(answer: Answer, remap: bool) -> int:
    if answer is Answer.EXHAUSTED:
        return EXIT_INCONCLUSIVE
    if remap:
        return EXIT_OK if answer is Answer.YES else EXIT_ANSWER_NO
    return EXIT_OK


def _cmd_solve(args) -> int:
    """Run ``solve`` or ``solve-tg`` with the ``--trace`` file open, and report.

    Only the decomposition-guided engine has a budget mode, and only it
    reports the size of its search in the text output.
    """
    inst = _load(args.path, args.ell)
    mode = None if args.command == "solve-tg" else "auto"
    if mode and args.budget is not None:
        mode, budget = "fixed", args.budget
    elif mode and args.oracle_k:
        g, cap = inst.graph, args.cap
        budget = max(0, brute_mm(g, cap) + brute_is(g, cap) - 2 * inst.ell)
        mode = "oracle-k"
    handle, trace = _open_trace(args.trace)
    try:
        if mode is None:
            result = solve_imbtg(inst, trace=trace)
        elif mode == "auto":
            result = solve_auto(inst, trace=trace)
        else:
            result = solve_imba(inst, budget, trace=trace)
    finally:
        if handle:
            handle.close()
    # Twice the exact potential bounds every yes-path, so Exhausted is No.
    if mode == "oracle-k" and result.answer is Answer.EXHAUSTED:
        result = SolveResult(Answer.NO, None, result.stats)
    doc = {
        "command": args.command,
        "instance": args.path,
        "engine": "imba" if mode else "imbtg",
        "n": inst.graph.vertex_count,
        "m": inst.graph.edge_count,
        "ell": inst.ell,
        "answer": result.answer.value,
        "certificate": _certificate_doc(result.certificate),
        "stats": vars(result.stats),
    }
    lines = [f"answer: {result.answer.value}"]
    if result.certificate is not None:
        pairs = " ".join(f"{u}-{v}" for u, v in sorted(result.certificate))
        lines.append(f"certificate: {pairs}")
    if mode is not None:
        doc["budget_mode"] = mode
        lines.append(
            f"nodes: {result.stats.nodes_visited}  max-depth: {result.stats.max_depth}"
        )
    _emit(doc, args.json, lines)
    return _answer_exit(result.answer, args.answer_status)


def _cmd_oracle(args) -> int:
    inst = _load(args.path, args.ell)
    report = parameters(inst.graph, inst.ell, cap=args.cap)
    doc = {"command": "oracle", "instance": args.path, "budget": report.budget}
    doc.update(asdict(report))
    doc["is"] = doc.pop("is_")
    lines = [
        f"n={report.n} ell={report.ell}",
        f"mm={report.mm} is={report.is_} im={report.im} vc={report.vc}",
        f"k_trivial={report.k_trivial} k_mm={report.k_mm} "
        f"k_is={report.k_is} k_avg={report.k_avg} budget={report.budget}",
    ]
    _emit(doc, args.json, lines)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    inst = _load(args.path, None)
    dec = decompose(inst.graph)
    report = audit(inst.graph, dec)
    d, a, c = sort_labels(dec.d), sort_labels(dec.a), sort_labels(dec.c)
    components = [sort_labels(comp) for comp in dec.d_components]
    doc = {
        "command": "decompose",
        "instance": args.path,
        "d": [str(v) for v in d],
        "a": [str(v) for v in a],
        "c": [str(v) for v in c],
        "d_components": [[str(v) for v in comp] for comp in components],
        "audit": {"ok": report.ok, "checks": report.checks, "failures": report.failures},
    }
    lines = [
        f"d: {d}",
        f"a: {a}",
        f"c: {c}",
        f"d-components: {components}",
        f"audit: {'pass' if report.ok else 'FAIL'} "
        + " ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in report.checks.items()),
    ]
    _emit(doc, args.json, lines)
    return EXIT_OK


def _structure_doc(sc) -> dict:
    doc = {"kind": sc.kind}
    if sc.u_side is not None:
        doc["u_side"] = [str(v) for v in sort_labels(sc.u_side)]
        doc["w_side"] = [str(v) for v in sort_labels(sc.w_side)]
    return doc


def _cmd_classify(args) -> int:
    inst = _load(args.path, None)
    cw = recognize_cameron_walker(inst.graph)
    tight = classify_tight(inst.graph)
    doc = {
        "command": "classify",
        "instance": args.path,
        "cameron_walker": _structure_doc(cw),
        "tight": _structure_doc(tight),
    }
    lines = [f"cameron-walker: {cw.kind}", f"tight: {tight.kind}"]
    _emit(doc, args.json, lines)
    return EXIT_OK


def _write_out(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    g = generate(args.spec, seed=args.seed)
    _write_out(write_instance(Instance(g, args.ell)), args.out)
    return EXIT_OK


def _cmd_reduce_ds(args) -> int:
    inst = _load(args.path, args.ell)
    reduced = reduce_dominating_set(inst.graph, inst.ell)
    _write_out(write_instance(reduced), args.out)
    return EXIT_OK


def _parse_cliques(text: str):
    parts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            parts.append([int(tok) for tok in chunk.split(",")])
        except ValueError:
            raise InvalidSpecError(f"bad clique list {chunk!r}") from None
    return parts


def _cmd_reduce_mis(args) -> int:
    inst = _load(args.path, None)
    reduced = reduce_multicolored_is(inst.graph, _parse_cliques(args.cliques))
    _write_out(write_instance(reduced), args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise NotADirectoryError(f"not a directory: {args.directory!r}")
    rows = []
    for path in sorted(directory.glob("*.im")):
        inst = _load(path, None)
        if args.engine == "tg":
            result = solve_imbtg(inst)
        else:
            result = solve_auto(inst)
        rows.append(
            {
                "instance": path.name,
                "n": inst.graph.vertex_count,
                "m": inst.graph.edge_count,
                "ell": inst.ell,
                "answer": result.answer.value,
                "nodes_visited": result.stats.nodes_visited,
                "max_depth": result.stats.max_depth,
            }
        )
    doc = {"command": "bench", "engine": args.engine, "results": rows}
    lines = [
        f"{'instance':<28} {'n':>4} {'m':>4} {'ell':>4} {'answer':<10} "
        f"{'nodes':>8} {'depth':>6}"
    ]
    for r in rows:
        lines.append(
            f"{r['instance']:<28} {r['n']:>4} {r['m']:>4} {r['ell']:>4} "
            f"{r['answer']:<10} {r['nodes_visited']:>8} {r['max_depth']:>6}"
        )
    _emit(doc, args.json, lines)
    return EXIT_OK


_HANDLERS = {
    "solve": _cmd_solve,
    "solve-tg": _cmd_solve,
    "oracle": _cmd_oracle,
    "decompose": _cmd_decompose,
    "classify": _cmd_classify,
    "gen": _cmd_gen,
    "reduce-ds": _cmd_reduce_ds,
    "reduce-mis": _cmd_reduce_mis,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (IMSolveError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
