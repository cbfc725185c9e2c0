"""Acceptance gate: ten headline properties, one printed verdict line each.

Run with plain `pytest -v`; every test prints

    [criterion N] PASS - <what was certified> (<elapsed>)

through the capture barrier so the verdicts always reach the terminal.
Every check is exact; the elapsed-time bounds are part of the criteria.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

import oracles
from cagekit.cage import (all_indices, random_cage, simplicial_indices,
                          supra_simplicial_indices)
from cagekit.demos import DEMO_NAMES, run_demo
from cagekit.field import FieldDescriptor
from cagekit.inscribe import (inscribe_with_tangent, make_tangent,
                              propagate_tangents, tangent_at_node)
from cagekit.linalg import SubspaceBasis, kernel_basis, span_equal
from cagekit.poly import HomogPoly
from cagekit.verify import (cayley_bacharach_check, evaluation_matrix,
                            hilbert_function, independence_counterexample,
                            verify_simplicial_rigidity,
                            verify_supra_interpolation)
from cagekit.viete import Configuration, coefficient_cage, node_matches_roots
from test_verify import fubini_disagreements

SHAPES = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4),
          (4, 2), (4, 3))


@pytest.fixture
def announce(capsys):
    def _announce(num, label, ok, started, budget):
        elapsed = time.monotonic() - started
        in_time = elapsed < budget
        verdict = "PASS" if ok and in_time else "FAIL"
        with capsys.disabled():
            print(f"[criterion {num}] {verdict} - {label} "
                  f"({elapsed:.2f}s, budget {budget:g}s)")
        assert ok, f"criterion {num} failed: {label}"
        assert in_time, (f"criterion {num} overran its budget: "
                         f"{elapsed:.2f}s >= {budget:g}s")
    return _announce


def random_tangent(rng, node, dim):
    n = len(node.point) - 1
    while True:
        vecs = [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
                for _ in range(dim)]
        try:
            return make_tangent(node, vecs)
        except ValueError:
            continue


def plain_rank(cage, selection, degree):
    """The rank of the degree-k evaluation matrix of the selected nodes,
    by Fraction elimination in tests/oracles.py."""
    points = [[c.as_fraction() for c in node.point]
              for node in cage.nodes_for(selection)]
    return oracles.rank(oracles.eval_matrix(points, degree))


def test_criterion_01_interpolation(announce):
    started = time.monotonic()
    ok = True
    for i in range(50):
        n, d = SHAPES[i % len(SHAPES)]
        cage = random_cage(1000 + i, d, n)
        supra = supra_simplicial_indices(d, n)
        ok = ok and len(supra) == comb(d + n, n) - n
        report = verify_supra_interpolation(cage)
        ok = ok and report.passed
        if i % 10 == 0:
            # the rank the report proves from validation, recomputed
            ok = ok and plain_rank(cage, supra, d) == \
                report.checks[0].details["rank"] == len(supra)
    announce(1, "degree-d forms through the supra nodes are exactly the "
             "group-product pencils (50 cages, 5 ranks recomputed over "
             "Fractions)", ok, started, 60)


def test_criterion_02_rigidity(announce):
    started = time.monotonic()
    ok = True
    for i in range(30):
        n, d = SHAPES[i % len(SHAPES)]
        cage = random_cage(2000 + i, d + 1, n)
        ok = ok and len(simplicial_indices(d + 1, n)) == comb(d + n, n)
        report = verify_simplicial_rigidity(cage)
        ok = ok and report.passed
        if i % 10 == 0:
            simp = simplicial_indices(d + 1, n)
            ok = ok and plain_rank(cage, simp, d) == \
                report.checks[1].details["rank"] == len(simp)
    announce(2, "simplicial nodes of a size-(d+1) cage pin degree-d forms "
             "through a square invertible matrix (30 cages, 3 ranks "
             "recomputed over Fractions)", ok, started, 30)


def test_criterion_03_cardinalities(announce):
    started = time.monotonic()
    ok = True
    for d in range(1, 9):
        for n in range(1, 6):
            ok = ok and len(simplicial_indices(d, n)) == comb(d + n - 1, n)
            ok = ok and len(supra_simplicial_indices(d, n)) == \
                comb(d + n, n) - n
    ok = ok and (len(simplicial_indices(3, 3)),
                 len(supra_simplicial_indices(3, 3))) == (10, 17)
    ok = ok and (len(simplicial_indices(2, 3)),
                 len(supra_simplicial_indices(2, 3))) == (4, 7)
    ok = ok and (len(simplicial_indices(3, 2)),
                 len(supra_simplicial_indices(3, 2))) == (6, 8)
    announce(3, "selection sizes match the closed forms for all d <= 8, "
             "n <= 5, including the documented spot values", ok, started, 1)


def test_criterion_04_chasles(announce):
    started = time.monotonic()
    ok = True
    supra = supra_simplicial_indices(3, 2)
    for i in range(10):
        cage = random_cage(4000 + i, 3, 2)
        ev = evaluation_matrix(cage.nodes_for(supra), 3)
        kernel = kernel_basis(ev.matrix)
        ok = ok and kernel.dim == 2
        ninth = cage.node((3, 3))
        for vec in kernel.vectors:
            poly = HomogPoly.from_coefficients(cage.field, 3, 3, vec)
            ok = ok and poly.evaluate(ninth.point).is_zero()
    announce(4, "every cubic through the eight supra nodes of a 3x3 cage "
             "passes through the ninth (10 cages)", ok, started, 5)


def test_criterion_05_cayley_bacharach(announce):
    started = time.monotonic()
    rng = random.Random(55)
    ok = True
    for d in (2, 3, 4):
        indices = list(all_indices(d, 2))
        for t in range(20):
            cage = random_cage(5000 + 100 * d + t, d, 2)
            m = rng.randint(0, len(indices))
            chosen = set(rng.sample(indices, m))
            partition = ([i for i in indices if i in chosen],
                         [i for i in indices if i not in chosen])
            nodes = cage.nodes()
            x1 = [nd for nd in nodes if nd.index in chosen]
            for k in range(2 * d - 2):
                report = cayley_bacharach_check(cage, partition, k)
                # the check counts h of all nodes; eliminate it here
                lhs = report.checks[0].details["lhs"]
                ok = ok and report.passed and lhs == (
                    hilbert_function(nodes, k) - hilbert_function(x1, k))
    announce(5, "the interpolation defect of one part equals the size of "
             "the other minus its complementary-degree rank (60 random "
             "partitions, every admissible degree)", ok, started, 20)


def test_criterion_06_fubini(announce):
    started = time.monotonic()
    ok = True
    shapes = ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3))
    for i in range(10):
        n, d = shapes[i % len(shapes)]
        cage = random_cage(6000 + i, d, n)
        # the check proves its values from validation; the tables
        # eliminated here must agree with them and with the grid series
        ok = ok and fubini_disagreements(cage) == []
    announce(6, "node-set Hilbert functions add up across first-color "
             "slices at every degree (10 cages)", ok, started, 10)


def test_criterion_07_counterexample(announce):
    started = time.monotonic()
    report = independence_counterexample()
    by_name = {c.name: c for c in report.checks}
    ok = report.passed
    ok = ok and by_name["same-cardinality"].details["deficient"] == 13
    ok = ok and by_name["same-cardinality"].details["supra"] == 13
    ok = ok and by_name["supra-kernel-dimension"].details["kernel-dim"] == 2
    ok = ok and by_name["deficient-kernel-dimension"].details["kernel-dim"] >= 3
    ok = ok and by_name["witness-through-deficient-only"].witness is not None
    announce(7, "thirteen supra nodes pin quartics to the pencil while a "
             "thirteen-node deficient set does not, with an explicit "
             "four-line witness", ok, started, 2)


def test_criterion_08_inscription(announce):
    started = time.monotonic()
    rng = random.Random(88)
    ok = True
    shapes = ((2, 2), (3, 2), (2, 3), (4, 2), (3, 3))
    for i in range(20):
        n, d = shapes[i % len(shapes)]
        cage = random_cage(8000 + i, d, n)
        node = rng.choice(cage.nodes())
        dim = i % n
        s = n - dim
        tau = random_tangent(rng, node, dim)
        variety = inscribe_with_tangent(cage, node, tau)
        ok = ok and variety.s == s
        for poly in variety.polynomials():
            for q in cage.nodes():
                ok = ok and poly.evaluate(q.point).is_zero()
        back = tangent_at_node(variety, node)
        ok = ok and span_equal(SubspaceBasis(n, back.basis),
                               SubspaceBasis(n, tau.basis))
        forced = propagate_tangents(cage, node, tau)
        for q in cage.nodes():
            # propagation raises SingularNodeError unless the Jacobian at
            # q has rank s, so every forced tangent here is certified
            ok = ok and forced[q.index].dim == dim
            redone = inscribe_with_tangent(cage, q, forced[q.index])
            ok = ok and redone.same_variety(variety)
    announce(8, "a tangent at one node pins a unique smooth inscribed "
             "variety, and re-inscribing from any other node with the "
             "propagated tangent recovers it (20 instances)",
             ok, started, 30)


def test_criterion_09_viete(announce):
    started = time.monotonic()
    rng = random.Random(99)
    ok = True
    for n in (1, 2, 3):
        for d in (1, 2, 3, 4):
            flat = rng.sample(range(-40, 41), d * n)
            config = Configuration(
                FieldDescriptor.rationals(),
                [flat[i * n:(i + 1) * n] for i in range(d)])
            cage = coefficient_cage(config)
            ok = ok and len(cage.nodes()) == d ** n
            for nd in cage.nodes():
                ok = ok and node_matches_roots(cage, config, nd.index)
                ok = ok and all(c.as_fraction().denominator == 1
                                for c in nd.point)
    announce(9, "taking elementary symmetric functions of each root choice "
             "lands exactly on the coefficient-cage nodes, integrally for "
             "integer roots (all d <= 4, n <= 3)", ok, started, 10)


def test_criterion_10_demos(announce):
    started = time.monotonic()
    ok = True
    for name in DEMO_NAMES:
        report = run_demo(name)
        ok = ok and report.passed
        names = [c.name for c in report.checks]
        ok = ok and any(s.startswith("target-") and s.endswith("-in-group-span")
                        for s in names)
        if name == "cube-elliptic":
            ok = ok and "eighth-vertex-automatic" in names
        else:
            ok = ok and any(s.endswith("-from-documented-lambda")
                            for s in names)
    announce(10, "the four bundled demos certify their named polynomials "
             "and the automatic eighth vertex", ok, started, 30)
