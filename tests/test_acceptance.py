"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; any assertion failure marks the criterion red.
"""

import math
import time
from random import Random

import pytest

from invmean import (
    CERTIFIED,
    TriStateColoring,
    check_oscillation_monotonicity,
    falsify_contractivity,
    invariant_mean_eval,
    is_ergodic,
    oscillation,
    tg_stabilize,
    tg_step,
    verify_invariance,
    verify_mean_properties,
)

from census import classify_all_small_graphs, digraph_from_mask, disjoint_survivors
from invariant_equation_oracle import solve_invariant_equation

CENSUS_BUDGET_SECONDS = 5.0


def test_criterion_01_four_vertex_census_agrees():
    """Production classifier vs cycle-enumeration oracle on all 2^16 graphs."""
    start = time.perf_counter()
    census = classify_all_small_graphs(4)
    elapsed = time.perf_counter() - start
    assert census.total == 65536
    assert census.mismatches == ()
    assert elapsed < CENSUS_BUDGET_SECONDS, f"census took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 1: PASS — 65536 graphs, 0 mismatches, "
        f"{census.ergodic_count} ergodic, {elapsed:.2f}s"
    )


def test_criterion_02_fixture_classifications(ex2, ex3, ex4, ex5, ex6):
    """Exact boolean/integer classification of the five bundled mappings."""
    c2 = is_ergodic(ex2.graph)
    assert c2.ergodic is True
    c3 = is_ergodic(ex3.graph)
    assert c3.irreducible is False
    c4 = is_ergodic(ex4.graph)
    assert c4.irreducible is False  # vertex 4 has no outgoing path back
    c5 = is_ergodic(ex5.graph)
    assert c5.irreducible is False
    c6 = is_ergodic(ex6.graph)
    assert c6.period == 2 and c6.ergodic is False
    print(
        "ACCEPTANCE 2: PASS — ex2 ergodic, ex3/ex4/ex5 not irreducible, "
        "ex6 period 2"
    )


def test_criterion_03_tristate_bound_exhaustive(census4):
    """Every ergodic 4-vertex graph x every coloring in {-1,0,1}^4 reaches a
    constant coloring within q0 steps, the graph's uniform walk length (at
    most Wielandt's 10, far below 3^4 = 81), constant 0 unless started at
    a constant +-1; on every graph some coloring needs exactly q0 steps.

    A coloring is the disjoint pair (P, M) of its +1 and -1 vertex sets;
    one step maps (P, M) to (f(P), f(M)) with f(S) = {v : in(v) subset S},
    each slot independently, and the coloring is constant exactly in the
    states (V, empty), (empty, V), (empty, empty).  Since empty and V are
    fixed points of f and disjointness is preserved (no vertex has an
    empty in-neighborhood here), the first constant step is the max of
    the two slots' first-hit times into {empty, V}.  The sweep checks all
    16 subset orbits and all 81 pairs per graph; tg_stabilize itself is
    cross-checked on a seeded sample of (graph, coloring) pairs.
    """
    full = 15
    pairs = [(p, q) for p in range(16) for q in range(16) if not p & q]
    assert len(pairs) == 81
    graph_tables = {}
    for mask in census4.ergodic_masks:
        g = digraph_from_mask(4, mask)
        q0 = is_ergodic(g).uniform_walk_length
        f = []
        for subset in range(16):
            coloring = TriStateColoring(
                tuple(1 if subset >> v & 1 else -1 for v in range(4))
            )
            stepped = tg_step(g, coloring)
            f.append(sum(1 << v for v in range(4) if stepped.values[v] == 1))
        hit = [0] * 16
        absorbed = [0] * 16
        for subset in range(16):
            cur, k = subset, 0
            while cur not in (0, full):
                cur = f[cur]
                k += 1
                assert k <= q0, f"graph {mask}: subset {subset} not absorbed in q0={q0} steps"
            hit[subset] = k
            absorbed[subset] = cur
            # only the all-ones start may stabilize to +1
            assert (absorbed[subset] == full) == (subset == full), (mask, subset)
        worst = 0
        for p, q in pairs:
            k = max(hit[p], hit[q])
            assert k <= q0
            worst = max(worst, k)
            cbar = 1 if absorbed[p] == full else (-1 if absorbed[q] == full else 0)
            constant_start = (p == full and q == 0) or (q == full and p == 0)
            if not constant_start:
                assert cbar == 0, (mask, p, q)
        assert worst == q0, f"graph {mask}: slowest coloring takes {worst} < q0={q0} steps"
        graph_tables[mask] = (hit, absorbed)

    # direct cross-check of tg_stabilize on sampled pairs
    rng = Random(33)
    masks = census4.ergodic_masks
    for _ in range(1500):
        mask = masks[rng.randrange(len(masks))]
        g = digraph_from_mask(4, mask)
        p, q = pairs[rng.randrange(81)]
        c0 = TriStateColoring(
            tuple(1 if p >> v & 1 else (-1 if q >> v & 1 else 0) for v in range(4))
        )
        report = tg_stabilize(g, c0)
        hit, absorbed = graph_tables[mask]
        assert report.steps_to_constant == max(hit[p], hit[q])
        assert report.steps_to_constant <= is_ergodic(g).uniform_walk_length
        want = 1 if absorbed[p] == full else (-1 if absorbed[q] == full else 0)
        assert report.constant_value == want
    print(
        f"ACCEPTANCE 3: PASS — {len(census4.ergodic_masks)} ergodic graphs x 81 "
        "colorings stabilize within q0 steps, attained on every graph, constant 0 "
        "unless started constant"
    )


def test_criterion_04_one_way_feed_limit(ex5):
    """K(x, y, z, t) = sqrt(x*y) to 1e-9, unchanged when z, t move."""
    rng = Random(4004)
    worst = 0.0
    worst_dep = 0.0
    for _ in range(100):
        x, y, z, t = (rng.uniform(0.1, 10.0) for _ in range(4))
        report = invariant_mean_eval(ex5, (x, y, z, t))
        assert report.converged
        err = abs(report.value - math.sqrt(x * y))
        worst = max(worst, err)
        assert err <= 1e-9, (x, y, z, t)
        z2, t2 = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)
        other = invariant_mean_eval(ex5, (x, y, z2, t2))
        assert other.converged
        dep = abs(other.value - report.value)
        worst_dep = max(worst_dep, dep)
        assert dep <= 1e-9
    print(
        f"ACCEPTANCE 4: PASS — 100 points: |K - sqrt(xy)| <= {worst:.2e}, "
        f"z/t dependence <= {worst_dep:.2e}"
    )


def test_criterion_05_disconnected_split(ex3):
    """Componentwise limit (sqrt(xy), sqrt(xy), sqrt(zt), sqrt(zt)); the
    vector (1, 1, 2, 2) is an exactly fixed point."""
    assert ex3.apply((1.0, 1.0, 2.0, 2.0)) == (1.0, 1.0, 2.0, 2.0)
    rng = Random(4005)
    worst = 0.0
    for _ in range(50):
        x, y, z, t = (rng.uniform(0.1, 10.0) for _ in range(4))
        report = invariant_mean_eval(ex3, (x, y, z, t))
        assert report.stop_reason == "classes-converged"
        got = [(vertices, value) for vertices, value, _ in report.classes]
        want = [((1, 2), math.sqrt(x * y)), ((3, 4), math.sqrt(z * t))]
        assert [vertices for vertices, _ in got] == [vertices for vertices, _ in want]
        err = max(abs(a[1] - b[1]) for a, b in zip(got, want))
        worst = max(worst, err)
        assert err <= 1e-9, (x, y, z, t)
    print(f"ACCEPTANCE 5: PASS — componentwise split limit to {worst:.2e}; exact fixed point")


def test_criterion_06_periodic_subsequences(ex6):
    """At (1, 4, 9, 16) the cyclic classes {1, 2} and {3, 4} close at 2 and
    12, swapping with the parity of the step; the full sequence does not
    converge."""
    report = invariant_mean_eval(ex6, (1.0, 4.0, 9.0, 16.0))
    assert not report.converged and report.value is None
    assert report.stop_reason == "classes-converged"
    n = report.iterations_used
    want = [((1, 2), 2.0), ((3, 4), 12.0)] if n % 2 == 0 else [((1, 2), 12.0), ((3, 4), 2.0)]
    got = [(vertices, value) for vertices, value, _ in report.classes]
    assert [vertices for vertices, _ in got] == [vertices for vertices, _ in want]
    assert [value for _, value in got] == pytest.approx([value for _, value in want], abs=1e-9)
    print(f"ACCEPTANCE 6: PASS — classes {{1,2}}/{{3,4}} at {got[0][1]:.12g}/{got[1][1]:.12g} "
          f"after {n} steps; full sequence diverges")


def test_criterion_07_cyclic_convergence_and_properties(ex2):
    """100 seeded starts converge; invariance residual <= 1e-9; strictness,
    monotonicity (+0.1 bumps), homogeneity (c in {0.5, 2, 10}, 1e-10
    relative) unfalsified."""
    rng = Random(4007)
    for _ in range(100):
        x = tuple(rng.uniform(0.1, 10.0) for _ in range(4))
        assert invariant_mean_eval(ex2, x).converged
    inv = verify_invariance(ex2, tol=1e-9, rng=Random(4107), n_samples=100)
    assert inv.passed and inv.n_evaluated == 100
    assert inv.max_residual <= 1e-9
    strict = verify_mean_properties(ex2, "strict", rng=Random(4207), n_samples=100)
    assert strict.passed
    monotone = verify_mean_properties(ex2, "monotone", rng=Random(4307), n_samples=100)
    assert monotone.passed
    homogeneous = verify_mean_properties(ex2, "homogeneous", rng=Random(4407), n_samples=100)
    assert homogeneous.passed
    print(
        f"ACCEPTANCE 7: PASS — invariance residual {inv.max_residual:.2e}; "
        "strict/monotone/homogeneous unfalsified"
    )


def test_criterion_08_contractivity_witnesses(ex2):
    """One step keeps the oscillation of a block vector (a, a, b, b); two
    steps strictly shrink the oscillation of every nonconstant start, and
    the graph alone certifies it."""
    w = (1.0, 1.0, 2.0, 2.0)
    once = ex2.nth_iterate(w, 1)
    assert oscillation(once) == oscillation(w) == 1.0, once
    # brute force over every set S: two disjoint sets survive one step of
    # f(S) = {v : in(v) subset of S}, none survive two
    assert disjoint_survivors(ex2.graph.in_masks, (1, 2)) == [True, False]
    clean = falsify_contractivity(ex2)
    assert clean.status == CERTIFIED and clean.witness is None
    print(f"ACCEPTANCE 8: PASS — one step keeps {w}; two steps separate nothing; "
          "certified from the graph")


def test_criterion_09_oscillation_monotonicity(ex2, ex3, ex4, ex5, ex6):
    """min nondecreasing / max nonincreasing along 50 iterates, one ulp of slack."""
    worst = 0.0
    for name, mapping in (("ex2", ex2), ("ex3", ex3), ("ex4", ex4),
                          ("ex5", ex5), ("ex6", ex6)):
        report = check_oscillation_monotonicity(mapping, Random(4009), n_samples=200)
        assert report.passed, name
        worst = max(worst, report.max_residual)
    print(f"ACCEPTANCE 9: PASS — 5 fixtures x 200 points x 50 steps, worst slip {worst:.1e}")


def test_criterion_10_functional_equation(ex2):
    """exp(K(.)) solves F = phi(K(.)) with residual <= 1e-8; max(.) does not;
    phi is the diagonal restriction, exactly."""

    def f_exp(x):
        return math.exp(invariant_mean_eval(ex2, x).value)

    phi_exp, rep_exp = solve_invariant_equation(
        f_exp, ex2, tol=1e-8, rng=Random(4010), n_samples=50
    )
    assert rep_exp.passed and rep_exp.n_evaluated > 0
    assert rep_exp.max_residual <= 1e-8

    phi_max, rep_max = solve_invariant_equation(
        max, ex2, tol=1e-9, rng=Random(4110), n_samples=50
    )
    assert not rep_max.passed
    assert rep_max.violations
    print(f"      max(.) witness: {rep_max.violations[0]}")

    rng = Random(4210)
    for _ in range(50):
        t = rng.uniform(0.1, 10.0)
        assert phi_exp(t) == f_exp((t, t, t, t))
        assert phi_max(t) == t
    print(
        f"ACCEPTANCE 10: PASS — exp∘K residual {rep_exp.max_residual:.2e}; "
        "max refuted with witness; phi = diagonal restriction exactly"
    )
