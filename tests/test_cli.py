import json
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

import imsolve as im
from imsolve import cli
from imsolve.instances import MAX_VERTICES
from imsolve.kernel import Instance

from conftest import (
    build,
    cycle,
    naive_branch_trap,
    path,
    paw_with_tail,
    triangle_star_graph,
)


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def put(name, inst):
        p = tmp_path / name
        p.write_text(im.write_instance(inst))
        paths[name] = str(p)

    put("paw.im", Instance(paw_with_tail(), 2))
    put("c5-l2.im", Instance(cycle(5), 2))
    put("fig2.im", Instance(naive_branch_trap(), 4))
    put("tstar.im", Instance(triangle_star_graph(4), 4))
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--json"])
    return code, json.loads(out)


def test_solve_yes_with_certificate(capsys, files):
    code, doc = run_json(capsys, ["solve", files["paw.im"]])
    assert code == 0
    assert doc["answer"] == "yes"
    # labels a,b,c,x,y map to 1..5 in file order
    assert doc["certificate"] == [[2, 3], [4, 5]]
    assert doc["stats"]["nodes_visited"] >= 1
    assert set(doc["stats"]) == {
        "nodes_visited", "max_depth", "branchings_by_rule", "reductions_by_rule",
        "bound_prunes", "memo_hits",
    }


def test_solve_fixed_budget_exhausts_with_exit_3(capsys, files):
    code, doc = run_json(capsys, ["solve", files["c5-l2.im"], "--budget", "0"])
    assert code == 3
    assert doc["answer"] == "exhausted"


def test_solve_auto_no_and_answer_status(capsys, files):
    code, doc = run_json(capsys, ["solve", files["c5-l2.im"]])
    assert code == 0 and doc["answer"] == "no"
    code, _ = run(capsys, ["solve", files["c5-l2.im"], "--answer-status"])
    assert code == 1
    code, _ = run(capsys, ["solve", files["paw.im"], "--answer-status"])
    assert code == 0


def test_solve_oracle_k_mode(capsys, files):
    code, doc = run_json(capsys, ["solve", files["c5-l2.im"], "--oracle-k"])
    assert code == 0 and doc["answer"] == "no"
    code, doc = run_json(capsys, ["solve", files["fig2.im"], "--oracle-k", "--ell", "2"])
    assert code == 0 and doc["answer"] == "yes"


def test_solve_tg_agrees(capsys, files):
    for name in ("paw.im", "c5-l2.im", "fig2.im", "tstar.im"):
        _, a = run_json(capsys, ["solve", files[name]])
        _, b = run_json(capsys, ["solve-tg", files[name]])
        assert a["answer"] == b["answer"]


def test_oracle_reports_fig2_values(capsys, files):
    code, doc = run_json(capsys, ["oracle", files["fig2.im"], "--ell", "4"])
    assert code == 0
    assert doc["mm"] == 4 and doc["is"] == 4
    assert doc["k_avg"] == 0.0


def test_oracle_cap_exceeded_exit_3(capsys, tmp_path):
    p = tmp_path / "big.im"
    p.write_text(im.write_instance(Instance(build(18), 1)))
    for argv in (["oracle", str(p)], ["solve", str(p), "--oracle-k"]):
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err == "error: 18 vertices exceeds the brute-force cap (16)\n"


def test_hostile_inputs_exit_3(capsys, tmp_path):
    # A path too long for the brute-force recursion, under a cap that
    # admits it, and headers of more vertices than interning or the
    # brute-force cap takes, which are refused before a vertex is built: a
    # million of them took about 280 MB in solve and 97 MB in oracle.
    n = 2100
    long_path = tmp_path / "path.im"
    long_path.write_text(im.write_instance(Instance(path(n), 1)))
    depth = sys.getrecursionlimit() // 2
    deep = f"error: {n} vertices exceeds the brute-force recursion cap ({depth})\n"
    cases = [
        (["oracle", str(long_path), "--cap", "3000"], deep),
        (["solve", str(long_path), "--oracle-k", "--cap", "3000"], deep),
    ]
    for size in (32769, 1_000_000):
        huge = tmp_path / f"huge{size}.im"
        huge.write_text(f"p im {size} 0 1\n")
        wide = f"error: {size} vertices exceeds the interning cap (32768)\n"
        capped = f"error: {size} vertices exceeds the brute-force cap (16)\n"
        cases += [
            (["solve", str(huge)], wide),
            (["solve-tg", str(huge)], wide),
            (["solve", str(huge), "--oracle-k"], wide),
            (["oracle", str(huge)], capped),
        ]
    for argv, message in cases:
        tracemalloc.start()
        try:
            assert cli.main(argv) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, (argv, peak)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message


def test_decompose_audit_ok(capsys, files):
    code, doc = run_json(capsys, ["decompose", files["fig2.im"]])
    assert code == 0
    assert doc["audit"]["ok"] is True
    assert len(doc["d"]) == 7 and len(doc["a"]) == 2 and doc["c"] == []


def test_classify(capsys, files):
    code, doc = run_json(capsys, ["classify", files["tstar.im"]])
    assert code == 0
    assert doc["cameron_walker"]["kind"] == "triangle-star"
    assert doc["tight"]["kind"] == "triangle-star"
    assert set(doc["cameron_walker"]) == {"kind"}


def test_classify_reports_core_sides(capsys, tmp_path):
    out = tmp_path / "cw.im"
    assert cli.main(["gen", "cw:u=3,w=1,nu=1,nw=1", "--seed", "2", "--out", str(out)]) == 0
    code, doc = run_json(capsys, ["classify", str(out)])
    assert code == 0
    # The file numbers u1, its pendant, u2, ..., w1 as 1, 2, 3, ..., 7.
    sides = {"u_side": ["1", "3", "5"], "w_side": ["7"]}
    assert doc["cameron_walker"] == {"kind": "pendant-bipartite", **sides}
    assert doc["tight"] == {"kind": "tight-pendant-bipartite", **sides}


def test_gen_is_deterministic_and_loadable(capsys, tmp_path):
    code1, out1 = run(capsys, ["gen", "random:n=8,p=0.5", "--seed", "3", "--ell", "2"])
    code2, out2 = run(capsys, ["gen", "random:n=8,p=0.5", "--seed", "3", "--ell", "2"])
    assert code1 == code2 == 0
    assert out1 == out2
    dest = tmp_path / "g.im"
    argv = ["gen", "random:n=8,p=0.5", "--seed", "3", "--ell", "2", "--out", str(dest)]
    assert run(capsys, argv) == (0, "")
    assert dest.read_text() == out1
    inst = im.read_instance(out1)
    assert inst.graph.vertex_count == 8 and inst.ell == 2


def test_gen_cw_tight(capsys):
    code, out = run(capsys, ["gen", "cw:u=1,w=1,nu=1,nw=1,tight", "--seed", "1"])
    assert code == 0
    inst = im.read_instance(out)
    from imsolve.oracle import classify_tight

    assert classify_tight(inst.graph).kind != "not-tight"


def test_reduce_ds_roundtrip(capsys, tmp_path):
    src = tmp_path / "k3.im"
    src.write_text(im.write_instance(Instance(build(3, [(1, 2), (1, 3), (2, 3)]), 1)))
    code, out = run(capsys, ["reduce-ds", str(src)])
    assert code == 0
    reduced = im.read_instance(out)
    assert reduced.graph.vertex_count == 6
    assert reduced.ell == 2
    dest = tmp_path / "k3-ds.im"
    assert run(capsys, ["reduce-ds", str(src), "--out", str(dest)]) == (0, "")
    assert dest.read_text() == out


def test_reduce_mis(capsys, tmp_path):
    src = tmp_path / "g.im"
    src.write_text(
        im.write_instance(Instance(build(4, [(1, 2), (3, 4), (1, 3)]), 0))
    )
    code, out = run(capsys, ["reduce-mis", str(src), "--cliques", "1,2;3,4"])
    assert code == 0
    reduced = im.read_instance(out)
    assert reduced.graph.vertex_count == 6
    assert reduced.ell == 2
    dest = tmp_path / "g-mis.im"
    argv = ["reduce-mis", str(src), "--cliques", "1,2;3,4", "--out", str(dest)]
    assert run(capsys, argv) == (0, "")
    assert dest.read_text() == out
    # Empty clique chunks, inside or at the end of the list, are skipped.
    for cliques in ("1,2;;3,4", "1,2;3,4;"):
        argv = ["reduce-mis", str(src), "--cliques", cliques, "--out", str(dest)]
        dest.unlink()
        assert run(capsys, argv) == (0, "")
        assert dest.read_text() == out


def test_bench_table(capsys, files):
    code, doc = run_json(capsys, ["bench", files["dir"]])
    assert code == 0
    names = [r["instance"] for r in doc["results"]]
    assert names == sorted(names)
    assert len(doc["results"]) == 4
    answers = {r["instance"]: r["answer"] for r in doc["results"]}
    assert answers["paw.im"] == "yes"
    assert answers["c5-l2.im"] == "no"
    code, tg = run_json(capsys, ["bench", files["dir"], "--engine", "tg"])
    assert code == 0 and tg["engine"] == "tg"
    assert {r["instance"]: r["answer"] for r in tg["results"]} == answers


def test_json_output_is_byte_identical(capsys, files):
    _, out1 = run(capsys, ["solve", files["fig2.im"], "--json"])
    _, out2 = run(capsys, ["solve", files["fig2.im"], "--json"])
    assert out1 == out2


def test_trace_file_written(tmp_path, files, capsys):
    trace_path = tmp_path / "trace.jsonl"
    code, _ = run(capsys, ["solve", files["c5-l2.im"], "--budget", "1",
                           "--trace", str(trace_path)])
    assert code == 0  # budget 1 explores the full tree and settles on no
    lines = trace_path.read_text().splitlines()
    assert len(lines) >= 8  # root branch record plus seven leaves
    for line in lines:
        record = json.loads(line)
        assert "depth" in record and "rule" in record


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.im"
    bad.write_text("p im 2 9 1\ne 1 2\n")
    assert cli.main(["solve", str(bad)]) == 2
    missing = tmp_path / "missing.im"
    assert cli.main(["solve", str(missing)]) == 2
    assert cli.main(["gen", "bogus:n=1"]) == 2
    assert cli.main(["gen", "cw:u=2,w=2,nu=1,nw=1,tigth"]) == 2
    too_many = MAX_VERTICES + 1
    assert cli.main(["gen", f"random:n={too_many},p=0.5"]) == 2
    assert cli.main(["gen", f"cw:u={too_many // 2},w={too_many - too_many // 2}"]) == 2
    huge = tmp_path / "huge.im"
    huge.write_text("p im 1000000000000 0 0\n")
    assert cli.main(["solve", str(huge)]) == 2
    assert cli.main(["solve", str(tmp_path)]) == 2  # a directory, not a file
    ok = tmp_path / "ok.im"
    ok.write_text(im.write_instance(Instance(cycle(5), 1)))
    assert cli.main(["solve", str(ok), "--trace", str(tmp_path)]) == 2
    assert cli.main(["bench", str(huge)]) == 2  # a file, not a directory
    capsys.readouterr()
    assert cli.main(["gen", "cw:u=-5,w=1,nw=1"]) == 2
    assert cli.main(["gen", "cw:u=2,w=-3"]) == 2
    assert cli.main(["gen", "cw:u=1,w=1,nu=-1"]) == 2
    assert cli.main(["gen", "cw:u=1,w=1,nw=-2"]) == 2
    assert capsys.readouterr().err == (
        "error: u must be nonnegative, got -5\nerror: w must be nonnegative, got -3\n"
        "error: nu must be nonnegative, got -1\nerror: nw must be nonnegative, got -2\n"
    )
    for i, text in enumerate(
        (
            "p im 2 1\n",  # header shape
            "p im 2 one 0\n",  # header integer
            "p im 2 0 -1\n",  # header sign
            "p im 2 1 0\ne 1 2 3\n",  # edge shape
            "p im 2 1 0\ne 1 b\n",  # endpoint integer
        )
    ):
        bad = tmp_path / f"bad{i}.im"
        bad.write_text(text)
        assert cli.main(["solve", str(bad)]) == 2, text
    for spec in ("random:n=-2", "cw:u=x", "cw:u=1,w=1,nu=2-1"):
        assert cli.main(["gen", spec]) == 2, spec
    assert cli.main(["reduce-mis", str(ok), "--cliques", "1,x"]) == 2
    assert cli.main(["solve", str(ok), "--budget", "-1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 10 and all(line.startswith("error: ") for line in err)


def test_console_main_exits_with_the_command_status(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["imsolve", "gen", "random:n=3,p=0"])
    with pytest.raises(SystemExit) as info:
        cli.console_main()
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("p im 3 0 1\n")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["solve"])  # missing path
    assert info.value.code == 2


def test_public_api_and_the_readme_tour():
    # The names the CLI, the search, the benchmark and the oracles use, and
    # nothing only the tests call; the README's tour must run against them.
    assert sorted(im.__all__) == [
        "Answer", "AuditReport", "GEDecomposition", "Graph", "IMSolveError",
        "Instance", "LocalFeatures", "ParameterReport", "Rule", "SearchStats",
        "SolveResult", "StructureClass", "audit", "brute_ds", "brute_im",
        "brute_is", "brute_mm", "brute_vc", "classify_tight", "decompose",
        "edge", "gen_random", "generate", "is_factor_critical",
        "is_triangle_star", "maximum_matching", "parameters", "read_instance",
        "recognize_cameron_walker", "reduce_dominating_set",
        "reduce_multicolored_is", "solve_auto", "solve_imba", "solve_imbtg",
        "verify_induced_matching", "write_instance",
    ]
    for name in im.__all__:
        assert getattr(im, name) is not None, name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S)
    exec(tour.group(1), {})
