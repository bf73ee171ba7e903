"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
pass/fail line per criterion (run with ``pytest -s`` to see the lines on
success).  The graph corpus realizes the criterion sweeps as 20,000 seeded
random graphs with up to 9 vertices plus every labeled graph on up to 5
vertices, all deterministic.
"""

import pytest

import imsolve as im
from imsolve.gallai_edmonds import audit, decompose
from imsolve.kernel import Instance, node_state
from imsolve.oracle import (
    NOT_CAMERON_WALKER,
    NOT_TIGHT,
    TIGHT_PENDANT_BIPARTITE,
    classify_tight,
    recognize_cameron_walker,
)
from imsolve.solver import Answer, solve_auto, solve_imba, solve_imbtg

from conftest import (
    all_labeled_graphs,
    choose_labels,
    expand_labels,
    is_connected,
    naive_branch_trap,
    reduce_labels,
)

RANDOM_COUNT = 20000
CORPUS_SEED = 1_000_000
MEASURE_STEP_QUOTA = 10_000


def _report(number: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    ps = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    graphs = []
    for i in range(RANDOM_COUNT):
        n = 1 + (i % 9)
        p = ps[(i // 9) % len(ps)]
        graphs.append(im.gen_random(n, p, CORPUS_SEED + i))
    return graphs


@pytest.fixture(scope="module")
def sweep(corpus):
    """Criterion 1 workload; also feeds criteria 2 and 7."""
    mismatches = []
    certificates = []
    oracle_values = []
    instances = 0
    for idx, g in enumerate(corpus):
        best, _ = im.brute_im(g)
        mm = im.brute_mm(g)
        is_ = im.brute_is(g)
        oracle_values.append((best, mm, is_))
        for ell in range((g.vertex_count + 1) // 2 + 1):
            expected = best >= ell
            auto = solve_auto(Instance(g, ell))
            tg = solve_imbtg(Instance(g, ell))
            instances += 1
            if (auto.answer is Answer.YES) != expected or (
                tg.answer is Answer.YES
            ) != expected:
                mismatches.append((idx, ell))
                continue
            if auto.answer is Answer.YES:
                certificates.append((idx, ell, auto.certificate))
                certificates.append((idx, ell, tg.certificate))
    return {
        "mismatches": mismatches,
        "certificates": certificates,
        "oracle": oracle_values,
        "instances": instances,
    }


@pytest.fixture(scope="module")
def budget_sweep(corpus, sweep):
    """Criterion 2 workload: fixed-budget runs on every yes-instance."""
    violations = []
    certificates = []
    runs = 0
    for idx, g in enumerate(corpus):
        best, mm, is_ = sweep["oracle"][idx]
        for ell in range(min(best, (g.vertex_count + 1) // 2) + 1):
            budget = mm + is_ - 2 * ell
            result = solve_imba(Instance(g, ell), budget)
            runs += 1
            if result.answer is not Answer.YES or result.stats.max_depth > budget:
                violations.append((idx, ell, result.answer.value))
                continue
            certificates.append((idx, ell, result.certificate))
    return {"violations": violations, "certificates": certificates, "runs": runs}


def test_criterion_1_oracle_equivalence(sweep):
    _report(
        1,
        not sweep["mismatches"],
        f"solver answers match brute force and the simple solver on "
        f"{sweep['instances']} instances over {RANDOM_COUNT} seeded graphs "
        f"(n <= 9): {len(sweep['mismatches'])} mismatches",
    )


def test_criterion_2_budget_contract(budget_sweep):
    _report(
        2,
        not budget_sweep["violations"],
        f"fixed-budget runs with the oracle budget answered yes within "
        f"depth on {budget_sweep['runs']} yes-instances: "
        f"{len(budget_sweep['violations'])} violations",
    )


def test_criterion_3_measure_drops():
    half_sums = {}

    def half_sum(g):
        value = half_sums.get(g)
        if value is None:
            value = (im.brute_mm(g) + im.brute_is(g)) / 2
            half_sums[g] = value
        return value

    def potential(g, ell):
        return half_sum(g) - ell

    steps = 0
    violations = 0

    def visit(inst, depth, budget):
        nonlocal steps, violations
        if steps >= MEASURE_STEP_QUOTA:
            return
        g, ell = inst.graph, inst.ell
        reduced, _, reductions = reduce_labels(inst)
        for _, deleted, harvested in reductions:
            g2 = g.delete_vertices(deleted)
            ell2 = ell - 1 if harvested is not None else ell
            if potential(g2, ell2) > potential(g, ell):
                violations += 1
            steps += 1
            g, ell = g2, ell2
        state = node_state(reduced.graph.vertex_count, reduced.ell, depth, budget)
        if state is not None:
            return
        choice = choose_labels(reduced.graph, decompose(reduced.graph))
        parent = potential(reduced.graph, reduced.ell)
        children = [
            Instance(reduced.graph.delete_vertices(dels), reduced.ell)
            for dels in expand_labels(reduced.graph, choice)
        ]
        for child in children:
            if potential(child.graph, child.ell) > parent - 0.5:
                violations += 1
            steps += 1
        for child in children:
            visit(child, depth + 1, budget)

    index = 0
    while steps < MEASURE_STEP_QUOTA:
        n = 4 + (index % 6)
        p = (0.2, 0.35, 0.5, 0.65)[index % 4]
        g = im.gen_random(n, p, 2_000_000 + index)
        for ell in (1, 2):
            budget = max(0, im.brute_mm(g) + im.brute_is(g) - 2 * ell)
            visit(Instance(g, ell), 0, budget)
        index += 1

    _report(
        3,
        steps >= MEASURE_STEP_QUOTA and violations == 0,
        f"every reduction step kept the potential and every branching "
        f"child dropped it by at least one half over {steps} recorded "
        f"steps: {violations} violations",
    )


def test_criterion_4_decomposition_audit(corpus):
    failures = 0
    checked = 0
    for g in all_labeled_graphs(5):
        report = audit(g, decompose(g))
        checked += 1
        if not report.ok:
            failures += 1
    for g in corpus[:4000]:
        report = audit(g, decompose(g))
        checked += 1
        if not report.ok:
            failures += 1
    _report(
        4,
        failures == 0,
        f"decomposition audit (factor-critical components, perfectly "
        f"matched remainder, surplus, matching shape) passed on {checked} "
        f"graphs with n <= 9: {failures} failures",
    )


def test_criterion_5_structure_theorems(corpus):
    failures = 0
    checked = 0
    tight_formula_checked = 0

    def examine(g):
        nonlocal failures, checked, tight_formula_checked
        if g.vertex_count == 0 or not is_connected(g):
            return
        checked += 1
        mm = im.brute_mm(g)
        is_ = im.brute_is(g)
        imv, _ = im.brute_im(g)
        cw = recognize_cameron_walker(g)
        if (cw.kind != NOT_CAMERON_WALKER) != (mm == imv):
            failures += 1
            return
        tight = classify_tight(g)
        if (tight.kind != NOT_TIGHT) != (mm + is_ == 2 * imv):
            failures += 1
            return
        if tight.kind == TIGHT_PENDANT_BIPARTITE:
            tight_formula_checked += 1
            if not (
                mm == is_ == imv
                and 2 * imv == g.vertex_count - len(tight.w_side)
            ):
                failures += 1

    for g in all_labeled_graphs(5):
        examine(g)
    for g in corpus[:6000]:
        examine(g)
    # seeded recipes guarantee coverage of the tight pendant-bipartite shape
    for seed in range(10):
        examine(im.generate("cw:u=2,w=2,p=0.5,nu=1,nw=1-2,tight", seed=seed))
    _report(
        5,
        failures == 0 and tight_formula_checked > 0,
        f"structural recognizers agreed with the brute-force invariants on "
        f"{checked} connected graphs ({tight_formula_checked} of them in "
        f"the tight pendant-bipartite shape): {failures} disagreements",
    )


def test_criterion_6_hardness_reductions():
    failures = 0
    ds_checked = 0
    for g in all_labeled_graphs(5, min_n=3):
        if not is_connected(g) or g.edge_count < g.vertex_count:
            continue
        n = g.vertex_count
        ds = im.brute_ds(g)
        reduced = im.reduce_dominating_set(g, 0)
        imv = im.brute_im(reduced.graph, cap=40)[0]
        ds_checked += 1
        # im(G') = n - ds(g) is the all-targets form of the equivalence
        if imv != n - ds or len(im.maximum_matching(reduced.graph)) != n:
            failures += 1
            continue
        for ell in range(n + 1):
            if (ds <= ell) != (imv >= n - ell):
                failures += 1
                break
    seed = 0
    found = 0
    while found < 200:
        seed += 1
        n = 6 + (seed % 2)
        g = im.gen_random(n, 0.45, 3_000_000 + seed)
        if not is_connected(g) or g.edge_count < g.vertex_count:
            continue
        found += 1
        ds = im.brute_ds(g)
        reduced = im.reduce_dominating_set(g, 0)
        imv = im.brute_im(reduced.graph, cap=40)[0]
        ds_checked += 1
        if imv != n - ds or len(im.maximum_matching(reduced.graph)) != n:
            failures += 1

    import random
    from itertools import product

    rng = random.Random(4_000_000)
    mis_checked = 0
    for _ in range(300):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        if sum(sizes) > 10:
            continue
        labels = []
        edges = []
        parts = []
        nxt = 1
        for size in sizes:
            part = list(range(nxt, nxt + size))
            nxt += size
            labels += part
            edges += [(a, b) for i, a in enumerate(part) for b in part[i + 1:]]
            parts.append(part)
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                if not any(a in p and b in p for p in parts) and rng.random() < 0.35:
                    edges.append((a, b))
        g = im.Graph.build(labels, edges)
        reduced = im.reduce_multicolored_is(g, parts)
        mis_checked += 1
        if im.brute_is(reduced.graph) != len(parts):
            failures += 1
            continue
        has_multicolored = any(
            all(not g.has_edge(a, b) for i, a in enumerate(combo) for b in combo[i + 1:])
            for combo in product(*parts)
        )
        if has_multicolored != (im.brute_im(reduced.graph)[0] >= len(parts)):
            failures += 1
    _report(
        6,
        failures == 0,
        f"dominating-set reduction equivalence and matching-size identity "
        f"held on {ds_checked} connected cyclic graphs; multicolored "
        f"independent-set reduction held on {mis_checked} clique-partitioned "
        f"graphs: {failures} failures",
    )


def test_criterion_7_certificates(corpus, sweep, budget_sweep):
    bad = 0
    total = 0
    for idx, ell, certificate in sweep["certificates"] + budget_sweep["certificates"]:
        total += 1
        if certificate is None or len(certificate) != ell:
            bad += 1
            continue
        if not im.verify_induced_matching(corpus[idx], certificate):
            bad += 1
    _report(
        7,
        bad == 0 and total > 0,
        f"all {total} yes answers carried a certificate of exactly the "
        f"target size that verifies in the original graph: {bad} bad",
    )


def test_criterion_8_fixture_regression():
    g = naive_branch_trap()
    h = g.delete_vertices({"s"})
    values = (
        len(im.maximum_matching(g)),
        im.brute_mm(g),
        im.brute_is(g),
        len(im.maximum_matching(h)),
        im.brute_mm(h),
        im.brute_is(h),
    )
    _report(
        8,
        values == (4, 4, 4, 4, 4, 4),
        f"trap fixture reports matching and independence numbers 4, "
        f"unchanged after deleting the cut vertex: got {values}",
    )
