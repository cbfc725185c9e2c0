"""Interpolation, rigidity, Hilbert functions, slicing and smoothness checks."""

import json
import math
import random
from fractions import Fraction

import pytest

try:
    from hypothesis import given, strategies as st
except ImportError:
    given = None

import oracles
from cagekit import cage as cage_module, inscribe, linalg, verify
from cagekit import (FieldDescriptor, HomogPoly, LambdaMatrix, LinearForm,
                     Matrix, ShapeError, axis_cage, cayley_bacharach_check,
                     cayley_bacharach_pair, complete_intersection_span_check,
                     evaluation_matrix, fubini_slice_check, group_span,
                     hilbert_function, hilbert_table,
                     independence_counterexample, inscribe_with_tangent,
                     kernel_basis, make_tangent, product_of_linear_forms,
                     random_cage, rank, run_suite, simplicial_indices,
                     smoothness_check, supra_simplicial_indices,
                     transversal_points, verify_degree_minimality,
                     verify_simplicial_rigidity, verify_supra_interpolation)
from cagekit.cli import main
from cagekit.demos import build_demo
from cagekit.errors import ReducibleModulusError
from cagekit.field import FieldElement
from cagekit.poly import monomial_values
from cagekit.serialize import cage_to_json, check_to_json, report_to_json
from test_inscribe import moved_cage, random_sqrt2_cage


Q = FieldDescriptor.rationals()
SPLIT = FieldDescriptor.extension([-1, 0, 1], label="Q[t]/(t^2-1)")


def unit_square():
    return axis_cage(Q, [(0, 0), (1, 1)])


def check_by_name(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise KeyError(name)


# -- evaluation matrices -------------------------------------------------------


def test_evaluation_matrix_unit_square():
    cage = unit_square()
    ev = evaluation_matrix(cage.nodes(), 2)
    assert (ev.matrix.rows, ev.matrix.cols) == (4, 6)
    assert rank(ev.matrix) == 4


def test_evaluation_matrix_single_point_degree_zero():
    cage = unit_square()
    ev = evaluation_matrix([cage.node((1, 1))], 0)
    assert (ev.matrix.rows, ev.matrix.cols) == (1, 1)
    assert ev.matrix.entries[0][0] == Q.one()


def test_evaluation_matrix_nine_nodes_chasles_rank():
    cage = axis_cage(Q, [(0, 0), (1, 2), (2, 1)])
    ev = evaluation_matrix(cage.nodes(), 3)
    assert (ev.matrix.rows, ev.matrix.cols) == (9, 10)
    assert rank(ev.matrix) == 8


def test_evaluation_matrix_accepts_raw_points():
    ev = evaluation_matrix([(0, 0, 1), (1, 1, 1)], 1, field=Q)
    assert rank(ev.matrix) == 2


def test_evaluation_matrix_needs_field_source():
    with pytest.raises(ValueError):
        evaluation_matrix([(0, 0, 1)], 1)


# -- Hilbert functions ---------------------------------------------------------


def test_hilbert_unit_square_values():
    cage = unit_square()
    assert hilbert_table(cage.nodes(), 2) == (1, 3, 4)
    assert hilbert_function(cage.nodes(), 0) == 1
    assert hilbert_function(cage.nodes(), 1) == 3
    assert hilbert_function(cage.nodes(), 2) == 4


def test_hilbert_single_point():
    cage = unit_square()
    point = [cage.node((2, 2))]
    assert hilbert_table(point, 5) == (1,) * 6


def test_hilbert_stabilizes_at_point_count():
    rng = random.Random(61)
    for _ in range(5):
        cage = random_cage(rng.randint(0, 10 ** 6), 3, 2)
        nodes = list(cage.nodes())
        rng.shuffle(nodes)
        subset = nodes[:rng.randint(2, 9)]
        count = len(subset)
        table = hilbert_table(subset, count + 1)
        assert table[count - 1] == count
        assert table[count] == count
        assert all(a <= b for a, b in zip(table, table[1:]))


def test_hilbert_certified_shortcut_matches_brute_force():
    # the stabilized tail must agree with directly computed ranks
    rng = random.Random(67)
    for _ in range(4):
        pts = set()
        while len(pts) < 5:
            pts.add((Fraction(rng.randint(-4, 4)),
                     Fraction(rng.randint(-4, 4)), Fraction(1)))
        pts = sorted(pts)
        table = hilbert_table(pts, 8, field=Q)
        brute = tuple(oracles.hilbert(pts, k) for k in range(9))
        assert table == brute


def test_hilbert_duplicate_points_rejected():
    cage = unit_square()
    nd = cage.node((1, 1))
    with pytest.raises(ValueError):
        hilbert_table([nd, nd], 2)
    # projectively equal representatives count as duplicates too
    with pytest.raises(ValueError):
        hilbert_table([(0, 0, 1), (0, 0, 2)], 2, field=Q)


def test_hilbert_ragged_points_rejected():
    # a longer later point, then a shorter one, as evaluation_matrix rejects
    for pts in ([(1, 0, 0), (0, 1, 0, 7)], [(1, 0, 0), (0, 1)]):
        with pytest.raises(ShapeError):
            hilbert_function(pts, 1, field=Q)
        with pytest.raises(ShapeError):
            hilbert_table(pts, 2, field=Q)
        with pytest.raises(ShapeError):
            evaluation_matrix(pts, 1, field=Q)


def test_hilbert_negative_degree():
    for call in (hilbert_function, hilbert_table):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            call(unit_square().nodes(), -1)


def test_hilbert_function_is_one_table_entry():
    # one rank per value; the table certifies its stabilized tail instead
    rng = random.Random(71)
    for d, n in ((2, 2), (3, 2), (2, 3), (4, 2)):
        nodes = list(random_cage(rng.randrange(10 ** 6), d, n).nodes())
        subset = rng.sample(nodes, rng.randint(1, len(nodes)))
        k_max = len(subset) + 1
        table = hilbert_table(subset, k_max)
        assert [hilbert_function(subset, k) for k in range(k_max + 1)] \
            == list(table)
    assert hilbert_function([], 3) == 0
    assert hilbert_function([], 3, field=Q) == 0


@pytest.mark.parametrize("d, n", [(2, 3), (2, 4), (3, 2), (3, 3)])
def test_hilbert_table_of_all_nodes_matches_grid_series(d, n):
    # the d^n nodes are a complete intersection of n degree-d forms; one
    # degree past stabilization exercises the certified tail
    k_max = n * (d - 1) + 1
    for seed in (1, 2):
        cage = random_cage(700 + 10 * d + n + seed, d, n)
        assert hilbert_table(cage.nodes(), k_max) == tuple(
            oracles.grid_hilbert(d, n, k) for k in range(k_max + 1))


@pytest.mark.parametrize("field", [Q, SPLIT], ids=["Q", "Q[t]/(t^2-1)"])
def test_lemma_counts_are_the_node_selection_tables(field):
    # the command line's tables of the whole node set and of the simplicial
    # and supra nodes are counts #{I : |I| - n <= k} proved from
    # validation; each equals the eliminated table up to degree
    # n(d-1) + 2, past every table's stabilization, on random rational
    # cages and on the demo cages
    shapes = ((1, 3), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))
    cages = [random_cage(900 + 10 * n + d + seed, d, n, field)
             for n, d in shapes for seed in (0, 1)]
    if field is Q:
        cages += [build_demo(name).cage
                  for name in ("fermat-conic", "fermat-cubic-surface")]
    for cage in cages:
        n, d = cage.n, cage.d
        k_max = n * (d - 1) + 2
        for indices in (cage_module.all_indices(d, n),
                        simplicial_indices(d, n).indices,
                        supra_simplicial_indices(d, n).indices):
            nodes = [cage.node(i) for i in indices]
            assert verify._lemma_counts(indices, n, k_max) == hilbert_table(
                nodes, k_max, field=cage.field), (n, d, len(indices))


def exact_table(points, k_max):
    return tuple(len(linalg._rref(evaluation_matrix(points, k).matrix)[1])
                 for k in range(k_max + 1))


def node_sets(cage, rng, full=True):
    # the full grid, every first-color slice and a random subset
    nodes = list(cage.nodes())
    if full:
        yield nodes
    for s in range(1, cage.d + 1):
        yield [nd for nd in nodes if nd.index[0] == s]
    yield rng.sample(nodes, rng.randint(len(nodes) // 2, len(nodes) - 1))


def planted_points(rng, field, count):
    # distinct points of the plane over the field, in a random order: three
    # to five on a line, three to five on the conic x z = y^2, and count
    # random ones
    def element():
        return field.element([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                              for _ in range(field.degree)])

    a, b = ([element() for _ in range(3)] for _ in range(2))
    line = [[x + s * y for x, y in zip(a, b)]
            for s in range(rng.randint(3, 5))]
    conic = [[s * s, s, field.one()]
             for s in [element() for _ in range(rng.randint(3, 5))]]
    others = [[element() for _ in range(3)] for _ in range(count)]
    points = {}
    for pt in line + conic + others:
        if any(pt):
            points.setdefault(cage_module.canonical_point(pt), tuple(pt))
    out = list(points.values())
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("n, d", [(2, 3), (2, 5), (3, 3), (2, 6)])
def test_hilbert_table_matches_exact_ranks(n, d):
    # every certified degree, up to one past stabilization, against exact
    # elimination of the evaluation matrix; the exact ranks of the (3,3)
    # and (2,6) full grids take seconds, and their tables are checked
    # against the grid series in test_full_grid_table_runs_no_exact_kernel
    rng = random.Random(100 * n + d)
    cage = random_cage(rng.randrange(10 ** 6), d, n)
    for points in node_sets(cage, rng, full=d ** n <= 25):
        table = hilbert_table(points, len(points))
        k_max = table.index(len(points)) + 1
        assert table[:k_max + 1] == exact_table(points, k_max)


def test_hilbert_table_without_the_modular_core(monkeypatch):
    # short pivots mod p leave every lower bound short of the rank, so each
    # degree takes the exact integer kernel, and the tables stay the same
    rng = random.Random(29)
    cases = []
    for n, d in ((2, 3), (2, 4), (3, 2)):
        cage = random_cage(rng.randrange(10 ** 6), d, n)
        for points in node_sets(cage, rng):
            cases.append((points, hilbert_table(points, n * (d - 1) + 1)))
    real, kernels = linalg._pivots_mod, []
    real_kernel = verify._exact_kernel

    def short(rows, p):
        return real(rows, p)[:-1]

    def kernel(field, rows, cols):
        kernels.append(len(rows))
        return real_kernel(field, rows, cols)
    for module in (linalg, verify):
        monkeypatch.setattr(module, "_pivots_mod", short)
    monkeypatch.setattr(verify, "_exact_kernel", kernel)
    for points, table in cases:
        del kernels[:]
        assert hilbert_table(points, len(table) - 1) == table
        # every degree up to the one that reaches the point count
        assert len(kernels) == table.index(len(points)) + 1


def test_hilbert_table_needs_both_bounds_to_meet(monkeypatch):
    # a lower bound one short of the rank, beside a complete upper bound,
    # proves nothing: the exact integer kernel gives every degree
    rng = random.Random(31)
    cases = []
    for n, d in ((2, 3), (2, 4), (3, 2)):
        cage = random_cage(rng.randrange(10 ** 6), d, n)
        for points in node_sets(cage, rng):
            cases.append((points, hilbert_table(points, n * (d - 1) + 1)))
    real, real_rows, latest = linalg._pivots_mod, verify._degree_rows, []

    def rows_of(points):
        for rows in real_rows(points):
            latest[:] = [rows]
            yield rows

    def short(rows, p):
        pivots = real(rows, p)
        return pivots[:-1] if latest and rows is latest[0] else pivots
    monkeypatch.setattr(verify, "_degree_rows", rows_of)
    monkeypatch.setattr(verify, "_pivots_mod", short)
    for points, table in cases:
        assert hilbert_table(points, len(table) - 1) == table


def test_hilbert_table_takes_the_exact_path_on_the_prime(monkeypatch):
    # a coordinate whose denominator is the prime no longer declines: the
    # point (a/p, b, 1) enters as (a, bp, p), so for a != 0 its residue is
    # (a, 0, 0) and seven points collide mod p.  Degrees 0 and 1 are still
    # proved mod p; from degree 2 to the point count, at degree 4, the lower
    # bound falls short and one exact integer kernel gives each degree,
    # with no Matrix built
    p = linalg.PRIME
    pts = [(Fraction(a, p), Fraction(b), Fraction(1))
           for a in range(3) for b in range(3)] + [(Fraction(5, p), 7, 1)]
    calls = []
    real = linalg._fraction_free

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    def forbidden(*args, **kwargs):
        raise AssertionError("the integer path must not reach this")
    monkeypatch.setattr(linalg, "_fraction_free", counted)
    monkeypatch.setattr(verify, "Matrix", forbidden)
    monkeypatch.setattr(linalg, "_rref", forbidden)
    assert verify._distinct_points(pts, Q)[0][-1] == (5, 7 * p, p)
    table = hilbert_table(pts, 5, field=Q)
    assert table == tuple(oracles.hilbert(pts, k) for k in range(6))
    assert table == (1, 3, 6, 9, 10, 10)
    assert calls == [len(pts)] * 3


def test_hilbert_table_when_points_collide_mod_p():
    # a 3x3 grid whose first coordinates are 0, p, 2p is three collinear
    # points mod p: every lower bound falls short, and the exact kernel
    # gives each degree
    p = linalg.PRIME
    pts = [(Fraction(i * p), Fraction(j), Fraction(1))
           for i in range(3) for j in range(3)]
    table = hilbert_table(pts, 5, field=Q)
    assert table == tuple(oracles.hilbert(pts, k) for k in range(6))
    assert table == (1, 3, 6, 8, 9, 9)


def test_hilbert_table_over_an_extension_field_is_unchanged(monkeypatch):
    # every degree has full rank at every residue map, so the residues
    # certify it and no exact elimination runs
    def forbidden(*args, **kwargs):
        raise AssertionError("a full residue rank needs no exact matrix")

    cage = build_demo("fermat-cubic-surface").cage
    supra = cage.nodes_for(supra_simplicial_indices(cage.d, cage.n))
    monkeypatch.setattr(verify, "_evaluation_rows", forbidden)
    monkeypatch.setattr(linalg, "_eliminate", forbidden)
    assert hilbert_table(supra, 5, field=cage.field) == (1, 4, 10, 17, 17, 17)


def test_short_residue_ranks_build_the_exact_matrix_lazily(monkeypatch):
    # four collinear points over Q(sqrt2): degrees 1 and 2 fall short of
    # full rank at the residue maps.  Degree 1 has no kernel below to build
    # on and takes one exact elimination, the multiples of the line prove
    # degree 2, and degree 3 is full and certified by its residues alone
    sqrt2 = FieldDescriptor.extension([-2, 0, 1])
    t = sqrt2.generator()
    pts = [(1, k * t + k, k * t + k + 1) for k in range(4)]
    widths = []
    real = linalg._eliminate

    def counted(field, rows):
        rows = list(rows)
        widths.append(len(rows[0]))
        return real(field, rows)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert hilbert_table(pts, 5) == (1, 2, 3, 4, 4, 4)
    # C(k+2, 2) columns in degree k: degree 1 only
    assert widths == [math.comb(3, 2)]


def counted_gauss_jordan(monkeypatch):
    # the widths of the exact eliminations over a number field
    widths = []
    real = linalg._gauss_jordan

    def counted(rows):
        widths.append(len(rows[0]))
        return real(rows)
    monkeypatch.setattr(linalg, "_gauss_jordan", counted)
    return widths


@pytest.mark.parametrize("name", ["fermat-cubic-surface", "k3-quartic"])
def test_demo_node_tables_take_one_exact_elimination(monkeypatch, name):
    # the first rank-deficient degree, d, takes the one exact kernel; its
    # multiples prove every later degree at every residue map, and the
    # table is the complete-intersection count of the node set
    cage = build_demo(name).cage
    n, d = cage.n, cage.d
    k_max = n * (d - 1) + 1
    points = [nd.point for nd in cage.nodes()]
    widths = counted_gauss_jordan(monkeypatch)
    assert hilbert_table(points, k_max, field=cage.field) == \
        verify._lemma_counts(cage_module.all_indices(d, n), n, k_max)
    assert widths == [math.comb(d + n, n)]


@pytest.mark.parametrize("min_poly", [[-2, 0, 1], [-2, 0, 0, 1]],
                         ids=["Q(sqrt2)", "Q(cbrt2)"])
def test_planted_number_field_tables_match_exact_ranks(min_poly):
    # a line and a conic planted among random points: every degree up to
    # one past stabilization against exact elimination over the field
    field = FieldDescriptor.extension(min_poly)
    rng = random.Random(str(min_poly))
    for count in range(4):
        points = planted_points(rng, field, count)
        table = hilbert_table(points, len(points))
        k_max = table.index(len(points)) + 1
        assert table[:k_max + 1] == tuple(
            len(linalg._gauss_jordan([list(row) for row in evaluation_matrix(
                points, k).matrix.entries])[1]) for k in range(k_max + 1))


def test_points_coinciding_in_one_factor_raise():
    # Q[t]/(t^2 - 1) is Q x Q; the second point equals the first in the
    # factor t = 1 only, so the residue ranks of degree 1 differ at the
    # two roots, and the exact kernel meets the zero divisor (1 - t) / 2
    t = SPLIT.generator()
    one, zero = SPLIT.one(), SPLIT.zero()
    points = [(zero, zero, one), ((1 - t) / 2, zero, one), (zero, one, one)]
    for call in (hilbert_table, hilbert_function):
        assert call(points, 0) in (1, (1,))
        with pytest.raises(ReducibleModulusError):
            call(points, 1)


def test_kernel_with_the_prime_in_a_denominator_carries_no_basis(
        monkeypatch):
    # four points of the line x + y + q z = 0 over Q(sqrt2), with q its
    # split prime, have distinct residues on the line x + y = 0 mod q.
    # Degree 1 takes the exact kernel, the line scaled to (1/q, 1/q, 1),
    # which has no residue; so degree 2 carries no basis and takes the
    # exact kernel too, and degree 3 is full at every root
    sqrt2 = FieldDescriptor.extension([-2, 0, 1])
    q = linalg._residue_maps(sqrt2)[0]
    points = [tuple(sqrt2.from_rational(c) for c in pt)
              for pt in ((1, -1, 0), (2, -2 - q, 1), (3, -3 - 2 * q, 2),
                         (1, -1 - 3 * q, 3))]
    kernels = []
    real = verify._exact_kernel

    def kept(field, rows, cols):
        kernels.append(real(field, rows, cols))
        return kernels[-1]
    monkeypatch.setattr(verify, "_exact_kernel", kept)
    widths = counted_gauss_jordan(monkeypatch)
    assert hilbert_table(points, 4) == (1, 2, 3, 4, 4) == tuple(
        oracles.hilbert([[c.as_fraction() for c in pt] for pt in points], k)
        for k in range(5))
    assert widths == [3, 6]
    assert [Fraction(1, q), Fraction(1, q), 1] in [
        [sqrt2.coerce(c).as_fraction() for c in vec] for vec in kernels[0]]
    assert linalg._images(sqrt2, kernels[0]) == (q, [])


def test_exact_degree_zero_rows_are_field_elements(monkeypatch):
    # with no residue map every rank over Q(sqrt2) is eliminated exactly,
    # the degree-0 rank included, whose rows hold the field's one
    sqrt2 = FieldDescriptor.extension([-2, 0, 1])
    t = sqrt2.generator()
    pts = [(1, k * t + k, k * t + k + 1) for k in range(4)]
    monkeypatch.setattr(linalg, "_residue_maps",
                        lambda field: (linalg.PRIME, ()))
    assert hilbert_function(pts, 0) == 1
    assert hilbert_function(pts, 1) == 2


@pytest.mark.parametrize("n, d", [(2, 3), (2, 5), (3, 3), (2, 6)])
def test_full_grid_table_runs_no_exact_kernel(monkeypatch, n, d):
    # the first rank-deficient degree, d, has no basis below to build on,
    # and takes the checked kernel mod 2^89 - 1; every later degree is
    # proved by the two modular bounds, so an exact fallback would show as
    # an elimination
    cage = random_cage(300 + 10 * n + d, d, n)
    nodes = cage.nodes()
    kernels, eliminations = [], []
    real_kernel, real_core = verify._kernel_mod, linalg._fraction_free

    def kernel(rows, picked, cols):
        vectors = real_kernel(rows, picked, cols)
        kernels.append(vectors is not None)
        return vectors

    def core(rows):
        eliminations.append(len(rows))
        return real_core(rows)

    def forbidden(*args, **kwargs):
        raise AssertionError("the integer path must not reach this")
    monkeypatch.setattr(verify, "_kernel_mod", kernel)
    monkeypatch.setattr(linalg, "_fraction_free", core)
    for name in ("_exact_kernel", "kernel_basis", "rank"):
        monkeypatch.setattr(verify, name, forbidden)
    k_max = n * (d - 1) + 1
    assert hilbert_table(nodes, k_max) == tuple(
        oracles.grid_hilbert(d, n, k) for k in range(k_max + 1))
    assert kernels == [True] and eliminations == []


def spy_kernels(monkeypatch):
    # the answers of the checked kernel and the row counts of the exact one
    answers, exact = [], []
    real_mod, real_exact = verify._kernel_mod, verify._exact_kernel

    def modular(rows, picked, cols):
        vectors = real_mod(rows, picked, cols)
        answers.append(vectors is not None)
        return vectors

    def integer(field, rows, cols):
        exact.append(len(rows))
        return real_exact(field, rows, cols)
    monkeypatch.setattr(verify, "_kernel_mod", modular)
    monkeypatch.setattr(verify, "_exact_kernel", integer)
    return answers, exact


def test_kernel_heights_past_the_reconstruction_bound_take_the_exact_kernel(
        monkeypatch):
    # four collinear points with coordinates near 2^50: the line through
    # them has coefficients near 2^100, past the 2^44 bound, so degree 1
    # takes the exact kernel once, and the line's products prove degree 2
    rng = random.Random(37)
    a, b = ([rng.randrange(2 ** 50, 2 ** 51) for _ in range(3)]
            for _ in range(2))
    points = [tuple(x + t * y for x, y in zip(a, b)) for t in range(4)]
    answers, exact = spy_kernels(monkeypatch)
    assert hilbert_table(points, 4, field=Q) == tuple(
        oracles.hilbert(points, k) for k in range(5)) == (1, 2, 3, 4, 4)
    assert answers == [False] and exact == [4]


def test_altered_modular_kernel_vector_is_rejected(monkeypatch):
    # a vector changed after reconstruction fails the exact row check, and
    # the exact kernel gives the same table
    nodes = random_cage(307, 3, 2).nodes()
    table = hilbert_table(nodes, 5)
    real = linalg._reconstructed

    def altered(x, q):
        vector = real(x, q)
        return None if vector is None else [e + 1 for e in vector]
    answers, exact = spy_kernels(monkeypatch)
    monkeypatch.setattr(linalg, "_reconstructed", altered)
    assert hilbert_table(nodes, 5) == table == (1, 3, 6, 8, 9, 9)
    assert answers == [False] and exact == [9]


# -- the integer path against evaluation_matrix and linalg -----------------


def normalized(vectors):
    # a canonical kernel vector is zero past its free column, where it
    # holds 1, or D on the integer path
    out = []
    for v in vectors:
        last = next(x for x in reversed(v) if x)
        out.append([Fraction(x) / last for x in v])
    return out


def matrix_path(points, k):
    m = evaluation_matrix(points, k, field=Q).matrix
    return rank(m), [list(v) for v in kernel_basis(m).vectors]


def integer_path(points, k):
    pts, _ = verify._distinct_points(points, Q)
    rows = verify._evaluation_rows(pts, k)
    kernel = verify._exact_kernel(Q, rows, len(rows[0]))
    return verify._evaluation_rank(pts, k, Q), normalized(kernel)


def assert_paths_agree(points, k_max):
    table = hilbert_table(points, k_max, field=Q)
    frac = [tuple(Q.coerce(c).coeffs[0] for c in getattr(p, "point", p))
            for p in points]
    for k in range(k_max + 1):
        got = integer_path(points, k)
        assert got == matrix_path(points, k), k
        assert got[0] == hilbert_function(points, k, field=Q) == table[k]
        assert got[0] == oracles.hilbert(frac, k)


@pytest.mark.parametrize("n, d", [(2, 3), (2, 4), (3, 2), (3, 3)])
def test_integer_path_matches_the_matrix_path_on_cages(n, d):
    rng = random.Random(1000 + 10 * n + d)
    cage = random_cage(rng.randrange(10 ** 6), d, n)
    for points in node_sets(cage, rng, full=d ** n <= 16):
        assert_paths_agree(points, min(len(points), n * (d - 1) + 1, 5))


def test_integer_path_on_projectively_equal_representatives():
    # negative and fractional multiples enter as the same primitive
    # vectors, give the same tables, and still count as duplicates
    rng = random.Random(83)
    cage = random_cage(rng.randrange(10 ** 6), 3, 2)
    nodes = list(cage.nodes())
    scalings = [Q.from_rational(x) for x in
                (-1, Fraction(-3, 2), Fraction(5, 7), 12, Fraction(-1, 9))]
    scaled = [tuple(c * scalings[i % len(scalings)] for c in nd.point)
              for i, nd in enumerate(nodes)]
    assert verify._distinct_points(scaled, Q)[0] \
        == verify._distinct_points(nodes, Q)[0]
    for pt in verify._distinct_points(scaled, Q)[0]:
        assert math.gcd(*pt) == 1
        assert next(x for x in reversed(pt) if x) > 0
    assert hilbert_table(scaled, 5) == hilbert_table(nodes, 5)
    assert_paths_agree(scaled, 4)
    for scale in scalings:
        twin = tuple(c * scale for c in nodes[4].point)
        for call in (hilbert_function, hilbert_table):
            with pytest.raises(ValueError, match="duplicate points"):
                call(nodes + [twin], 2)
    with pytest.raises(ValueError, match="duplicate points"):
        hilbert_table([(1, -2, 0), (Fraction(-1, 2), 1, 0)], 2, field=Q)


def test_integer_path_on_denominators_and_collisions_mod_p():
    p = linalg.PRIME
    over_p = [(Fraction(a, p), Fraction(b, 3), Fraction(1))
              for a in range(3) for b in range(3)] + [(Fraction(5, p), 7, 1)]
    collide = [(Fraction(i * p), Fraction(j), Fraction(1))
               for i in range(3) for j in range(3)]
    # (1, 0, 1) and (1 + p, 0, 1) are distinct points equal mod p
    twins = [(1, 0, 1), (1 + p, 0, 1), (0, 1, 1), (2, 3, 1),
             (Fraction(1, p), 1, 0)]
    for points in (over_p, collide, twins):
        assert_paths_agree(points, len(points) // 2 + 2)


def test_integer_path_on_the_empty_point_list():
    assert hilbert_function([], 4, field=Q) == 0
    assert hilbert_table([], 3, field=Q) == (0, 0, 0, 0)
    assert hilbert_table([], 2) == (0, 0, 0)


def test_degree_rows_equal_monomial_values():
    # each degree's rows come from the previous degree's, one product per
    # entry, and equal the rows monomial_values builds from scratch
    rng = random.Random(89)
    for nv in (1, 2, 3, 5):
        points = [tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(nv))
                  for _ in range(7)] + [(0,) * (nv - 1) + (1,)]
        for k, rows in zip(range(7), verify._degree_rows(points)):
            basis = verify.monomial_basis(k, nv)
            assert rows == [monomial_values(1, pt, basis, k)
                            for pt in points]
            assert rows == verify._evaluation_rows(points, k)
    # the same path builds the evaluation matrix over a number field
    sqrt2 = FieldDescriptor.extension([-2, 0, 1])
    points = [tuple(sqrt2.element([rng.randint(-3, 3), rng.randint(-3, 3)])
                    for _ in range(3)) for _ in range(4)]
    for k in range(4):
        basis = verify.monomial_basis(k, 3)
        assert evaluation_matrix(points, k).matrix.entries == tuple(
            tuple(monomial_values(sqrt2.one(), pt, basis, k))
            for pt in points)


if given is not None:
    COORD = st.one_of(
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        st.integers(-3, 3).map(lambda a: Fraction(a, linalg.PRIME)))

    @given(st.lists(st.tuples(COORD, COORD, COORD), min_size=1, max_size=7),
           st.integers(0, 3))
    def test_integer_path_property(raw, k):
        # rational point sets with denominators, p among them, against the
        # Fraction matrix and the oracle; duplicates raise on both paths
        points = [p for p in raw if any(p)]
        if not points:
            return
        canon = [tuple(x / next(y for y in reversed(p) if y) for x in p)
                 for p in points]
        if len(set(canon)) < len(canon):
            for call in (hilbert_function, hilbert_table):
                with pytest.raises(ValueError, match="duplicate points"):
                    call(points, k, field=Q)
            return
        assert_paths_agree(points, k)
else:
    @pytest.mark.skip(reason="needs hypothesis")
    def test_integer_path_property():
        pass


# -- main interpolation and rigidity checks ------------------------------------


def test_supra_interpolation_unit_square():
    cage = unit_square()
    report = verify_supra_interpolation(cage)
    assert report.passed
    assert check_by_name(report, "supra-evaluation-rank").details["rank"] == 4
    assert check_by_name(report, "kernel-dimension").details["kernel-dim"] == 2
    span = group_span(cage)
    assert span.dim == 2 and span.ambient_dim == 6


def test_supra_interpolation_plane_three_by_three():
    cage = axis_cage(Q, [(0, 0), (1, 2), (2, 1)])
    report = verify_supra_interpolation(cage)
    assert report.passed
    assert check_by_name(report,
                         "supra-evaluation-rank").details["selection-size"] == 8
    assert check_by_name(report, "kernel-dimension").details["kernel-dim"] == 2


def node_rank(cage, selection, degree):
    """_evaluation_rank of the nodes of a selection of a valid cage, taken
    as validation keyed them: over Q their primitive integer vectors."""
    keys = cage._key_table()
    return verify._evaluation_rank([keys[i] for i in selection.indices],
                                   degree, cage.field)


@pytest.mark.parametrize("n, d", [(2, 4), (3, 3), (4, 2)])
def test_node_ranks_read_validation_keys(monkeypatch, n, d):
    # over Q the rank of the node keys reads the primitive integer vectors
    # that validation keyed the nodes by, and no node is scaled or
    # canonicalized again; on the supra and simplicial selections it meets
    # the proved ranks
    cage = random_cage(500 + 10 * n + d, d, n)
    cage.validate()
    supra = supra_simplicial_indices(d, n)
    simp = simplicial_indices(d, n)
    keys = cage._key_table()
    assert [keys[i] for i in supra.indices] == [
        linalg.primitive(linalg._prepared(Q, nd.point)[1])
        for nd in cage.nodes_for(supra)]

    def forbidden(*args, **kwargs):
        raise AssertionError("node rank path must not rescale nodes")
    for module in (verify, linalg):
        monkeypatch.setattr(module, "_prepared", forbidden)
    for module in (verify, cage_module):
        monkeypatch.setattr(module, "_point_key", forbidden)
    assert node_rank(cage, supra, d) == len(supra)
    assert node_rank(cage, simp, d - 1) == len(simp)


@pytest.mark.parametrize("n, d", [(2, 2), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_supra_certificate_matches_exact_path(n, d):
    # the ranks the supra and simplicial reports state from validation
    # alone are the exact ranks over plain Fractions, and every claim
    # derived from the supra rank holds there
    def plain(vectors):
        return [[c.as_fraction() for c in v] for v in vectors]

    for seed in (11, 12):
        cage = random_cage(100 * n + 10 * d + seed, d, n)
        report = verify_supra_interpolation(cage)
        assert report.passed
        supra = plain(nd.point for nd in
                      cage.nodes_for(supra_simplicial_indices(d, n)))
        assert oracles.rank(oracles.eval_matrix(supra, d)) == check_by_name(
            report, "supra-evaluation-rank").details["rank"]
        simp = plain(nd.point for nd in
                     cage.nodes_for(simplicial_indices(d, n)))
        invertible = verify._simplicial_checks(cage)[2]
        assert oracles.rank(oracles.eval_matrix(simp, d - 1)) == \
            invertible.details["rank"] == len(simp)
        kernel = oracles.kernel(oracles.eval_matrix(supra, d))
        assert len(kernel) == n == check_by_name(
            report, "kernel-dimension").details["kernel-dim"]
        products = plain(group_span(cage).vectors)
        assert oracles.rank(kernel + products) == n
        everywhere = oracles.eval_matrix(
            plain(nd.point for nd in cage.nodes()), d)
        assert all(sum(a * b for a, b in zip(row, vec)) == 0
                   for row in everywhere for vec in kernel)


@pytest.mark.parametrize("which", ["rationals", "fermat-cubic-surface"])
def test_supra_interpolation_takes_no_rank(monkeypatch, tmp_path, which):
    # on a validated cage the supra and simplicial checks read their ranks
    # off the selection sizes and slice additivity builds no table: no rank
    # is taken, nothing is eliminated, and the command line prints the same
    # checks
    cage = (random_cage(71, 3, 2) if which == "rationals"
            else build_demo(which).cage)
    cage.validate()
    supra = supra_simplicial_indices(cage.d, cage.n)
    simp = simplicial_indices(cage.d, cage.n)

    def forbidden(*args, **kwargs):
        raise AssertionError("no node rank may be taken")

    with monkeypatch.context() as m:
        for name in ("_evaluation_rank", "hilbert_table", "_degree_rank",
                     "rank", "_pivots_mod", "_exact_kernel", "kernel_basis"):
            m.setattr(verify, name, forbidden)
        for name in ("_rank", "rank", "_eliminate", "_rref", "_pivots_mod",
                     "_exact_kernel", "_kernel", "kernel_basis",
                     "_residue_maps"):
            m.setattr(linalg, name, forbidden)
        m.setattr(HomogPoly, "evaluate", forbidden)
        report = verify_supra_interpolation(cage)
        simplicial = verify._simplicial_checks(cage)
        suite = run_suite(cage, ("validation", "interpolation",
                                 "minimality", "rigidity", "fubini"))
    assert [c.name for c in report.checks] == [
        "supra-evaluation-rank", "kernel-dimension",
        "kernel-equals-group-span", "kernel-vanishes-on-all-nodes"]
    assert report.passed and all(c.passed for c in simplicial)
    assert all(c.witness is None for c in report.checks + simplicial)
    cols = math.comb(cage.d + cage.n, cage.n)
    assert check_by_name(report, "supra-evaluation-rank").details == {
        "rank": len(supra), "selection-size": len(supra), "columns": cols}
    for name in ("kernel-dimension", "kernel-equals-group-span"):
        assert check_by_name(report, name).details["kernel-dim"] == cage.n
    assert simplicial[2].details == {
        "rank": len(simp), "size": math.comb(cage.d + cage.n - 1, cage.n)}
    assert suite.checks[1:-1] == report.checks + simplicial
    fubini = suite.checks[-1]
    assert (fubini.name, fubini.passed, fubini.witness) \
        == ("slice-additivity", True, None)
    assert fubini.details == {"k-max": cage.d ** cage.n, "mismatches": []}
    path, out = tmp_path / "cage.json", tmp_path / "report.json"
    path.write_text(json.dumps(cage_to_json(cage)))
    assert main(["verify", "--cage", str(path), "--checks",
                 "validation,interpolation", "--no-timestamp",
                 "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"]
    assert payload["checks"][1:] == [
        check_to_json(c) for c in report.checks]


def test_number_field_supra_report_without_residues(monkeypatch):
    # exact elimination over Q(omega, cbrt3), with no residue map, gives
    # the supra and simplicial ranks the reports state from validation
    cage = build_demo("fermat-cubic-surface").cage
    d, n = cage.d, cage.n
    report = verify_supra_interpolation(cage)
    simplicial = verify._simplicial_checks(cage)
    calls = []
    original = linalg._eliminate

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "_residue_maps",
                        lambda field: (linalg.PRIME, ()))
    monkeypatch.setattr(linalg, "_eliminate", counted)
    assert node_rank(cage, supra_simplicial_indices(d, n), d) == \
        check_by_name(report, "supra-evaluation-rank").details["rank"]
    assert node_rank(cage, simplicial_indices(d, n), d - 1) == \
        simplicial[2].details["rank"]
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["fermat-cubic-surface", "k3-quartic"])
def test_proved_ranks_match_node_ranks_on_the_demo_fields(name):
    # the residue-certified ranks over the degree-6 and degree-8 demo
    # fields are the ranks the reports state from validation alone
    cage = build_demo(name).cage
    d, n = cage.d, cage.n
    supra = check_by_name(verify_supra_interpolation(cage),
                          "supra-evaluation-rank")
    invertible = verify._simplicial_checks(cage)[2]
    assert node_rank(cage, supra_simplicial_indices(d, n), d) == \
        supra.details["rank"] == math.comb(d + n, n) - n
    assert node_rank(cage, simplicial_indices(d, n), d - 1) == \
        invertible.details["rank"] == math.comb(d + n - 1, n)


def test_lemma_products_are_triangular():
    # the hypothesis of the Lemma in verify_supra_interpolation, read off
    # evaluated forms: N_I = prod_j prod_{i < I_j} L_{j,i} * M^(k - |I| + n)
    # is nonzero at node J exactly when J >= I componentwise, for the supra
    # nodes in degree d and the simplicial nodes in degree d-1; M is a
    # linear form that vanishes at no node, so only the cage forms can
    # vanish
    rng = random.Random(211)
    cages = [random_cage(rng.randrange(10 ** 6), d, n)
             for n, d in ((2, 1), (2, 2), (2, 3), (3, 2), (4, 2))]
    cages.append(build_demo("fermat-cubic-surface").cage)
    for cage in cages:
        cage.validate()
        n, d = cage.n, cage.d
        keys = list(cage._key_table().values())
        m = verify._separating_form(cage.field, keys)
        for selection, k in ((supra_simplicial_indices(d, n), d),
                             (simplicial_indices(d, n), d - 1)):
            nodes = cage.nodes_for(selection)
            for index in selection.indices:
                factors = [cage.groups[j][i - 1] for j in range(n)
                           for i in range(1, index[j])]
                factors += [m] * (k - sum(index) + n)
                if not factors:
                    assert k == 0       # N_I is the constant 1
                    continue
                product = product_of_linear_forms(factors)
                assert product.degree == k
                for node in nodes:
                    above = all(a >= b for a, b in zip(node.index, index))
                    assert (not product.evaluate(node.point).is_zero()) \
                        == above, (n, d, index, node.index)


def test_rigidity_smallest_case():
    # size-2 plane cage: three simplicial nodes pin all lines
    cage = axis_cage(Q, [(0, 0), (1, 1)])
    report = verify_simplicial_rigidity(cage)
    assert report.passed
    assert check_by_name(report,
                         "simplicial-matrix-square").details["columns"] == 3


def test_rigidity_conics_and_oracle_determinant():
    cage = axis_cage(Q, [(0, 0), (1, 2), (2, 1)])
    report = verify_simplicial_rigidity(cage)
    assert report.passed
    ev = evaluation_matrix(cage.nodes_for(simplicial_indices(3, 2)), 2)
    assert (ev.matrix.rows, ev.matrix.cols) == (6, 6)
    raw = [[e.as_fraction() for e in row] for row in ev.matrix.entries]
    assert oracles.det(raw) != 0


def test_degree_minimality():
    assert verify_degree_minimality(unit_square()).passed
    assert verify_degree_minimality(
        axis_cage(Q, [(0, 0), (1, 2), (2, 1)])).passed


def test_degree_minimality_d1_vacuous():
    cage = axis_cage(Q, [(3, 5)])
    assert verify_degree_minimality(cage).passed


def test_interpolation_invariant_under_transform():
    cage = random_cage(5, 3, 2)
    g = Matrix(Q, [[1, 1, 0], [0, 2, 1], [1, 0, 1]])
    moved = moved_cage(cage, g)
    a = verify_supra_interpolation(cage)
    b = verify_supra_interpolation(moved)
    assert [(c.name, c.passed, c.details) for c in a.checks] \
        == [(c.name, c.passed, c.details) for c in b.checks]


def test_interpolation_invariant_under_color_reordering():
    cage = random_cage(6, 3, 2)
    reordered = type(cage)(cage.field,
                           [tuple(reversed(cage.groups[0])), cage.groups[1]])
    reordered.validate()
    a = verify_supra_interpolation(cage)
    b = verify_supra_interpolation(reordered)
    assert a.passed and b.passed
    assert [(c.name, c.details) for c in a.checks] \
        == [(c.name, c.details) for c in b.checks]


# -- slicing and Cayley-Bacharach ----------------------------------------------


def test_fubini_unit_square_hand_values():
    cage = unit_square()
    report = fubini_slice_check(cage)
    assert report.passed
    nodes = cage.nodes()
    full = hilbert_table(nodes, 2)
    s1 = hilbert_table([n for n in nodes if n.index[0] == 1], 2)
    s2 = hilbert_table([n for n in nodes if n.index[0] == 2], 2)
    assert full[1] == 3 and s1[1] == 2 and s2[0] == 1
    assert full[1] == s1[1] + s2[0]


def fubini_disagreements(cage):
    """Where the tables hilbert_table eliminates for the full grid and its
    first-color slices, up to the node count, disagree with the grid series
    of the complete intersection, with each other, or with the report
    fubini_slice_check proves from validation; empty when nothing does."""
    d, n = cage.d, cage.n
    k_max = d ** n
    nodes = cage.nodes()
    full = hilbert_table(nodes, k_max)
    slices = [hilbert_table([nd for nd in nodes if nd.index[0] == s], k_max)
              for s in range(1, d + 1)]
    out = []
    if full != tuple(oracles.grid_hilbert(d, n, k) for k in range(k_max + 1)):
        out.append(("full", full))
    sliced = tuple(oracles.grid_hilbert(d, n - 1, k) for k in range(k_max + 1))
    out += [("slice", s, t) for s, t in enumerate(slices, 1) if t != sliced]
    out += [("additivity", k) for k in range(k_max + 1)
            if full[k] != sum(t[k - s] for s, t in enumerate(slices)
                              if k >= s)]
    report = fubini_slice_check(cage)
    if not report.passed or report.checks[0].details != {
            "k-max": k_max, "mismatches": []}:
        out.append(("report", report.checks[0].details))
    return out


def test_fubini_random_cages():
    # the values the check proves are those elimination finds, over Q and
    # over number fields
    cages = [random_cage(seed, d, n) for seed in (41, 42)
             for d, n in ((1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4),
                          (4, 2), (3, 3))]
    cages += [build_demo("fermat-conic").cage, random_sqrt2_cage(73, 2, 3)]
    for cage in cages:
        assert fubini_disagreements(cage) == [], cage.summary()


def test_cayley_bacharach_d2_single_node():
    cage = unit_square()
    nodes = list(cage.nodes())
    part = ([n.index for n in nodes[:-1]], [nodes[-1].index])
    report = cayley_bacharach_check(cage, part, 1)
    assert report.passed
    c = report.checks[0]
    assert c.details["lhs"] == 0 and c.details["rhs"] == 0


def test_cayley_bacharach_d3_boundary_degree():
    cage = axis_cage(Q, [(0, 0), (1, 2), (2, 1)])
    nodes = list(cage.nodes())
    part = ([n.index for n in nodes[:-1]], [nodes[-1].index])
    report = cayley_bacharach_check(cage, part, 3)
    assert report.passed
    c = report.checks[0]
    assert c.details["lhs"] == c.details["rhs"] == 0


def test_cayley_bacharach_range_and_shape_errors():
    cage = axis_cage(Q, [(0, 0), (1, 2), (2, 1)])
    nodes = list(cage.nodes())
    part = ([n.index for n in nodes[:-1]], [nodes[-1].index])
    with pytest.raises(ValueError):
        cayley_bacharach_check(cage, part, 4)
    with pytest.raises(ValueError):
        cayley_bacharach_check(cage, ([], part[1]), 1)
    solid = random_cage(1, 2, 3)
    solid_part = ([n.index for n in solid.nodes()], [])
    with pytest.raises(ValueError):
        cayley_bacharach_check(solid, solid_part, 0)


def test_cayley_bacharach_rejects_a_repeated_index():
    # a part that names a node twice would count it twice in |X2| and
    # fail a valid cage; both entry points refuse it as a partition
    cage = random_cage(41, 3, 2)
    idx = [nd.index for nd in cage.nodes()]
    assert cayley_bacharach_check(cage, (idx[:4], idx[4:]), 0).passed
    for part in ((idx[:4], idx[4:] + [idx[-1]]),
                 (idx[:4] + [idx[0]], idx[4:]), (idx[:5], idx[4:])):
        with pytest.raises(ValueError, match="partition must split"):
            cayley_bacharach_check(cage, part, 0)
        with pytest.raises(ValueError, match="partition must split"):
            cayley_bacharach_pair(Q, *cage.groups, part, 0)


def test_cayley_bacharach_pair_matches_cage_check():
    # the cage check shares the pair's core on the cage's own nodes
    rng = random.Random(73)
    for d in (2, 3, 4, 3):
        cage = random_cage(rng.randrange(10 ** 6), d, 2)
        indices = [nd.index for nd in cage.nodes()]
        chosen = set(rng.sample(indices, rng.randint(0, len(indices))))
        part = ([i for i in indices if i in chosen],
                [i for i in indices if i not in chosen])
        for k in range(2 * d - 2):
            c = cayley_bacharach_check(cage, part, k).checks[0].details
            p = cayley_bacharach_pair(Q, *cage.groups, part, k).checks[0]
            assert p.passed
            assert (p.details["lhs"], p.details["rhs"], p.details["socle"]) \
                == (c["lhs"], c["rhs"], c["socle"])


def test_cayley_bacharach_pair_mixed_degrees():
    lines_a = [LinearForm(Q, [1, 0, 0]), LinearForm(Q, [1, 0, -1])]
    lines_b = [LinearForm(Q, [0, 1, 0]), LinearForm(Q, [0, 1, -1]),
               LinearForm(Q, [0, 1, -2])]
    points = transversal_points(Q, lines_a, lines_b)
    assert len(points) == 6
    keys = list(points)
    for k in range(0, 3):  # socle = 2 + 3 - 3 = 2
        part = (keys[:4], keys[4:])
        assert cayley_bacharach_pair(Q, lines_a, lines_b, part, k).passed


def test_cayley_bacharach_pair_proves_units_only_off_q(monkeypatch):
    # over Q transversal_points already rules out every incidence failure
    # and nonzero values are units; over Q[t]/(m) each call proves units
    calls = []
    real = verify._prove_off_hyperplane
    monkeypatch.setattr(verify, "_prove_off_hyperplane",
                        lambda *args: calls.append(args) or real(*args))
    for field in (Q, SPLIT):
        lines_a = [LinearForm(field, [1, 0, -c]) for c in range(2)]
        lines_b = [LinearForm(field, [0, 1, -c]) for c in range(3)]
        keys = list(transversal_points(field, lines_a, lines_b))
        for k in range(3):
            assert cayley_bacharach_pair(field, lines_a, lines_b,
                                         (keys[:4], keys[4:]), k).passed
        assert len(calls) == (0 if field is Q else 3)


def random_line_pair(rng, d, e):
    # integer lines, redrawn until every pair meets in one point and the
    # d * e points are distinct
    while True:
        lines = [[LinearForm(Q, [rng.randint(-4, 4) for _ in range(3)])
                  for _ in range(count)] for count in (d, e)]
        try:
            return lines, transversal_points(Q, *lines)
        except ValueError:
            continue


def cayley_bacharach_grids(rng):
    # (name, check(part, k), grid index -> point, socle): the cage check
    # on random plane cages over Q and Q(sqrt 2), the pair on the colors of
    # the d = 3 ones, and the pair on random lines of mixed degrees
    grids = []
    cages = [random_cage(rng.randrange(10 ** 6), d, 2) for d in range(2, 7)]
    cages.append(random_sqrt2_cage(75, 3, 2))
    for cage in cages:
        points = {nd.index: nd.point for nd in cage.nodes()}
        grids.append((f"cage {cage.summary()}",
                      lambda part, k, c=cage: cayley_bacharach_check(
                          c, part, k), points, 2 * cage.d - 3))
        if cage.d == 3:
            grids.append((f"pair {cage.summary()}",
                          lambda part, k, c=cage: cayley_bacharach_pair(
                              c.field, *c.groups, part, k), points, 3))
    for d, e in ((2, 3), (3, 5), (5, 2)):
        lines, points = random_line_pair(rng, d, e)
        grids.append((f"lines {d}x{e}",
                      lambda part, k, ab=lines: cayley_bacharach_pair(
                          Q, *ab, part, k), points, d + e - 3))
    return grids


def test_cayley_bacharach_count_matches_eliminated_rank():
    # h_X(k) is the complete-intersection count, not a rank: with X1 empty
    # lhs is that count, and with a random X1 it is h_X(k) - h_X1(k); both
    # must equal the ranks hilbert_function eliminates
    rng = random.Random(97)
    for name, check, points, socle in cayley_bacharach_grids(rng):
        indices = list(points)
        chosen = set(rng.sample(indices, rng.randint(1, len(indices) - 1)))
        for k in range(socle + 1):
            h_x = hilbert_function(list(points.values()), k)
            for x1 in ([], [i for i in indices if i in chosen]):
                part = (x1, [i for i in indices if i not in x1])
                details = check(part, k).checks[0].details
                expected = h_x - hilbert_function([points[i] for i in x1], k)
                assert details["lhs"] == expected, (name, x1, k)


def test_cayley_bacharach_ranks_only_the_parts(monkeypatch):
    # neither entry point ranks the whole grid: each degree ranks X1 and
    # X2 once each, and nothing else
    sizes = []
    real = verify._evaluation_rank

    def recording(points, degree, field):
        sizes.append(len(points))
        return real(points, degree, field)

    monkeypatch.setattr(verify, "_evaluation_rank", recording)
    for name, check, points, socle in cayley_bacharach_grids(
            random.Random(98)):
        indices = list(points)
        part = (indices[:3], indices[3:])
        for k in range(socle + 1):
            assert check(part, k).passed, (name, k)
        assert sizes == [3, len(indices) - 3] * (socle + 1), name
        sizes.clear()


def test_transversal_points_rejects_concurrent_lines():
    with pytest.raises(ValueError):
        transversal_points(Q, [LinearForm(Q, [1, 0, 0])],
                           [LinearForm(Q, [0, 1, 0]),
                            LinearForm(Q, [1, 1, 0])])
    with pytest.raises(ValueError):
        transversal_points(Q, [LinearForm(Q, [1, 0, 0])],
                           [LinearForm(Q, [2, 0, 0])])


# -- smoothness and span membership ---------------------------------------------


def test_smoothness_generic_pencil():
    cage = unit_square()
    variety = LambdaMatrix(cage, [[Q.from_rational(2), Q.from_rational(-1)]])
    report = smoothness_check(variety)
    assert report.passed
    assert check_by_name(report, "jacobian-rank-at-nodes").passed


def test_smoothness_accepts_explicit_cage():
    cage = unit_square()
    variety = LambdaMatrix(cage, [[Q.one(), Q.from_rational(3)]])
    assert smoothness_check(variety, cage).passed


def test_smoothness_dependent_rows_rejected():
    cage = unit_square()
    variety = LambdaMatrix(cage, [[Q.one(), Q.one()],
                                  [Q.from_rational(2), Q.from_rational(2)]])
    with pytest.raises(ValueError):
        smoothness_check(variety)


def test_smoothness_rejects_rows_of_the_wrong_length():
    variety = LambdaMatrix(unit_square(), [[Q.one(), Q.from_rational(2),
                                            Q.from_rational(3)]])
    with pytest.raises(ShapeError):
        smoothness_check(variety)


def test_smoothness_refuses_a_cage_that_fails_validation():
    # the proof rests on validation, so a broken cage gets no report
    cage = cage_module.Cage(Q, [
        [LinearForm(Q, [1, 0, 0]), LinearForm(Q, [1, 0, 0])],
        [LinearForm(Q, [0, 1, 0]), LinearForm(Q, [0, 1, -1])]])
    variety = LambdaMatrix(cage, [[Q.one(), Q.zero()]])
    with pytest.raises(cage_module.MustValidateError):
        smoothness_check(variety)


def test_node_checks_refuse_a_cage_that_fails_validation():
    # the supra and simplicial ranks and slice additivity are proved from
    # validation, so a broken cage gets no report from them either
    for check in (verify_supra_interpolation, verify_degree_minimality,
                  verify_simplicial_rigidity, fubini_slice_check):
        cage = cage_module.Cage(Q, [
            [LinearForm(Q, [1, 0, 0]), LinearForm(Q, [1, 0, 0])],
            [LinearForm(Q, [0, 1, 0]), LinearForm(Q, [0, 1, -1])]])
        with pytest.raises(cage_module.MustValidateError):
            check(cage)


def zero_divisor_cage(field=SPLIT, t=None):
    # x and x - (t + 1) z, y and y - z: over Q[t]/(t^2 - 1) each form is
    # nonzero at each node it does not index, but x - (t + 1) z is the zero
    # divisor -(t + 1) at the nodes on x = 0; with t = 1 or t = -1 over Q
    # it is the cage in one factor of Q[t]/(t^2 - 1)
    t = field.generator() if t is None else field.from_rational(t)
    one, zero = field.one(), field.zero()
    return cage_module.Cage(field, [
        [LinearForm(field, [one, zero, zero]),
         LinearForm(field, [one, zero, -(t + one)])],
        [LinearForm(field, [zero, one, zero]),
         LinearForm(field, [zero, one, -one])]])


def test_zero_divisor_off_a_hyperplane_raises(tmp_path):
    # validity depends on the factor: the cage is valid at t = 1, and at
    # t = -1 the nodes (1, *) and (2, *) coincide, so the supra and
    # simplicial ranks the Lemma would state hold in one factor only;
    # validation raises instead, and so do the checks and the command line
    assert zero_divisor_cage(Q, 1).validate().valid
    assert "coincident-nodes" in {
        f.kind for f in zero_divisor_cage(Q, -1).validate().failures}
    for check in (cage_module.Cage.validate, verify_supra_interpolation,
                  verify_degree_minimality, verify_simplicial_rigidity):
        with pytest.raises(ReducibleModulusError, match="reducible"):
            check(zero_divisor_cage())
    path = tmp_path / "cage.json"
    path.write_text(json.dumps(cage_to_json(zero_divisor_cage())))
    assert main(["verify", "--cage", str(path), "--checks",
                 "validation,interpolation,minimality,rigidity",
                 "--no-timestamp", "-o", str(tmp_path / "out.json")]) == 2


def test_units_off_hyperplanes_from_residues_or_inversion(monkeypatch):
    # over a number field every value off a hyperplane is proved a unit
    # from residues, with no inversion and no exact product; with no
    # residue map, or p dividing a denominator, it is computed exactly and
    # inverted, with the same outcome
    cage = build_demo("fermat-cubic-surface").cage
    forms = [[f.coeffs for f in group] for group in cage.groups]

    def forbidden(self):
        raise AssertionError("no inversion when the residues prove units")

    failures = []
    with monkeypatch.context() as m:
        m.setattr(FieldElement, "inverse", forbidden)
        cage_module._prove_off_hyperplane(cage.field, forms,
                                          cage._key_table(), failures)
    assert failures == []
    sqrt2 = FieldDescriptor.extension([-2, 0, 1], label="Q(sqrt2)")
    p = linalg._residue_maps(sqrt2)[0]
    one, zero, s = sqrt2.one(), sqrt2.zero(), sqrt2.generator()
    far = cage_module.Cage(sqrt2, [
        [LinearForm(sqrt2, [one, zero, zero]),
         LinearForm(sqrt2, [one, zero, -s])],
        [LinearForm(sqrt2, [zero, one, zero]),
         LinearForm(sqrt2, [zero, one, sqrt2.from_rational(Fraction(1, p))])]])
    assert far.validate().valid         # p divides a denominator

    # every exact value is one sum of products through cage.mul, one call
    # per coordinate, so the calls count the values computed exactly
    terms = []

    def counted(a, b):
        terms.append(1)
        return a * b

    monkeypatch.setattr(cage_module, "mul", counted)
    demos = [build_demo(name).cage
             for name in ("fermat-cubic-surface", "k3-quartic")]
    for demo in demos:
        fresh = type(demo)(demo.field, demo.groups)
        assert fresh.validate() == demo.validate()
    assert terms == []
    monkeypatch.setattr(linalg, "_residue_maps",
                        lambda field: (linalg.PRIME, ()))
    for again, before in [(type(c)(c.field, c.groups), c) for c in demos] + [
            (type(far)(sqrt2, far.groups), far)]:
        terms.clear()
        assert again.validate() == before.validate()
        assert again.validate().valid
        assert again._key_table() == before._key_table()
        n, d = before.n, before.d
        assert len(terms) == d ** n * n * (d - 1) * (n + 1)
    with pytest.raises(ReducibleModulusError):
        zero_divisor_cage().validate()


def test_cayley_bacharach_pair_zero_divisor_raises_at_every_k():
    # over Q[t]/(t^2 - 1) every a-line meets every b-line in one point and
    # the six points are distinct, but x + (t - 1) z takes the zero divisor
    # t - 1 on x = 0, and at t = 1 the two a-lines coincide; the count
    # needs unit values off the lines, so every degree raises, k = 0 too
    t, one, zero = SPLIT.generator(), SPLIT.one(), SPLIT.zero()
    lines_a = [LinearForm(SPLIT, [one, zero, zero]),
               LinearForm(SPLIT, [one, zero, t - one])]
    lines_b = [LinearForm(SPLIT, [zero, one, SPLIT.from_rational(-c)])
               for c in range(3)]
    keys = list(transversal_points(SPLIT, lines_a, lines_b))
    for k in range(3):
        with pytest.raises(ReducibleModulusError, match="reducible"):
            cayley_bacharach_pair(SPLIT, lines_a, lines_b,
                                  (keys[:3], keys[3:]), k)
    with pytest.raises(ValueError, match="coincides"):
        transversal_points(Q, [LinearForm(Q, [1, 0, 0])] * 2,
                           [LinearForm(Q, [0, 1, -c]) for c in range(3)])


def test_smoothness_proof_matches_node_jacobian_ranks():
    # the check rests rank s at every node on validation and rank(lambda);
    # the removed computation, lambda times the node differentials, agrees
    rng = random.Random(83)
    cages = [random_cage(rng.randrange(10 ** 6), d, n)
             for d, n in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2))]
    cages.append(build_demo("fermat-cubic-surface").cage)
    for cage in cages:
        n, field = cage.n, cage.field
        varieties = []
        for _ in range(2):
            node = rng.choice(cage.nodes())
            dim = rng.randint(1, n - 1)
            while True:
                vecs = [[rng.randint(-3, 3) for _ in range(n)]
                        for _ in range(dim)]
                if rank(Matrix(Q, vecs)) == dim:
                    break
            varieties.append(
                inscribe_with_tangent(cage, node, make_tangent(node, vecs)))
        for s in range(1, n + 1):
            while True:
                rows = [[field.from_rational(rng.randint(-4, 4))
                         for _ in range(n)] for _ in range(s)]
                if rank(Matrix(field, rows)) == s:
                    break
            varieties.append(LambdaMatrix(cage, rows))
        for variety in varieties:
            report = smoothness_check(variety)
            assert report.passed
            assert check_by_name(report, "jacobian-rank-at-nodes").details == {
                "expected-rank": variety.s, "singular-nodes": []}
            for node in cage.nodes():
                diff = inscribe.node_differentials(cage, node)
                jac = Matrix(field, [
                    oracles.matvec(oracles.transpose(diff.entries), row)
                    for row in variety.rows])
                assert rank(jac) == variety.s


def test_smoothness_does_no_work_per_node(monkeypatch):
    # one elimination, the rank of lambda, and nothing evaluated at a node
    cage = random_cage(89, 3, 3)
    variety = LambdaMatrix(cage, [[Q.one(), Q.from_rational(2), Q.zero()],
                                  [Q.zero(), Q.one(), Q.from_rational(-1)]])
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(inscribe, "node_differentials",
                        counted("node_differentials",
                                inscribe.node_differentials))
    for name in ("rank", "kernel_basis"):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    for cls in (HomogPoly, LinearForm):
        monkeypatch.setattr(cls, "evaluate", counted("evaluate", cls.evaluate))
    assert smoothness_check(variety).passed
    assert calls == ["rank"]


def test_smoothness_vanishing_matches_evaluation():
    # the check reads vanishing off validation; the oracle evaluates every
    # expanded pencil at every node
    rng = random.Random(79)
    varieties = []
    for d, n in ((2, 2), (3, 2), (2, 3), (3, 3)):
        cage = random_cage(rng.randrange(10 ** 6), d, n)
        node = rng.choice(cage.nodes())
        dim = rng.randint(1, n - 1)
        while True:
            vecs = [[rng.randint(-3, 3) for _ in range(n)]
                    for _ in range(dim)]
            if rank(Matrix(Q, vecs)) == dim:
                break
        varieties.append(
            inscribe_with_tangent(cage, node, make_tangent(node, vecs)))
        row = [Q.from_rational(rng.randint(1, 5)) for _ in range(n)]
        varieties.append(LambdaMatrix(cage, [row]))
    for variety in varieties:
        for poly in variety.polynomials():
            for node in variety.cage.nodes():
                assert poly.evaluate(node.point).is_zero()
        report = smoothness_check(variety)
        assert check_by_name(report, "pencils-vanish-on-nodes").passed


def test_span_check_accepts_group_sum():
    cage = unit_square()
    target = cage.group_polynomial(0) + cage.group_polynomial(1)
    assert complete_intersection_span_check([target], cage) is True


def test_span_check_takes_one_rank_and_visits_no_node(monkeypatch):
    # inputs in the group span are proved by one rank of the products
    # stacked with them: no node is evaluated and nothing is solved
    def forbidden(*args, **kwargs):
        raise AssertionError("an in-span input needs only the stacked rank")

    ranks = []

    def counted(matrix):
        ranks.append(matrix.rows)
        return rank(matrix)

    cages = [unit_square(), random_cage(7, 3, 2), random_cage(8, 2, 3),
             build_demo("fermat-conic").cage]
    for cage in cages:
        cage.validate()
        products = [cage.group_polynomial(j) for j in range(cage.n)]
        inputs = [products[0] + products[-1], products[-1] * 3]
        with monkeypatch.context() as m:
            m.setattr(HomogPoly, "evaluate", forbidden)
            m.setattr(linalg, "solve", forbidden)
            m.setattr(linalg, "kernel_basis", forbidden)
            m.setattr(verify, "_degree_rank", forbidden)
            m.setattr(verify, "rank", counted)
            assert complete_intersection_span_check(inputs, cage) is True
            assert complete_intersection_span_check([], cage) is True
        assert ranks == [cage.n + 2, cage.n]
        ranks.clear()


def test_span_check_rejects_nonvanishing_input():
    cage = unit_square()
    stray = HomogPoly(Q, 3, 2, {(2, 0, 0): 1})
    target = cage.group_polynomial(0) + cage.group_polynomial(1)
    for inputs in ([stray], [target, stray]):
        with pytest.raises(ValueError, match=r"at node \(2, 1\)$"):
            complete_intersection_span_check(inputs, cage)


def test_span_check_degree_mismatch():
    from cagekit import HomogPoly
    cage = unit_square()
    cubic = HomogPoly(Q, 3, 3, {(3, 0, 0): 1})
    with pytest.raises(ShapeError):
        complete_intersection_span_check([cubic], cage)


# -- counterexample and suite runner ---------------------------------------------


def test_counterexample_reads_ranks_not_kernels(monkeypatch):
    # both kernel dimensions are proved ranks subtracted from C(6, 2): the
    # supra rank and the deficient rank |Y_4| = 12, which the witness checks
    # bound from above, and the witness lies in the deficient kernel because
    # it vanishes on the deficient nodes, so no node rank is taken and no
    # kernel, evaluation matrix or system is built
    expected = report_to_json(independence_counterexample())
    assert check_by_name(independence_counterexample(),
                         "deficient-kernel-dimension").details == {
        "kernel-dim": 3, "expected-at-least": 3}
    deficient = cage_module.NodeSelection("deficient", tuple(
        i for i in cage_module.all_indices(4, 2)
        if i not in {(4, 2), (4, 3), (4, 4)}))
    assert node_rank(axis_cage(Q, [(i, i) for i in range(4)]),
                     deficient, 4) == 12

    def forbidden(*args, **kwargs):
        raise AssertionError("the counterexample needs no node rank")
    for module, name in ((verify, "kernel_basis"), (linalg, "kernel_basis"),
                         (verify, "Matrix"), (linalg, "solve"),
                         (verify, "_evaluation_rank")):
        monkeypatch.setattr(module, name, forbidden)
    assert report_to_json(independence_counterexample()) == expected


def test_cage_tables_read_the_node_keys(monkeypatch):
    # slice additivity counts the keys, and the cage's Cayley-Bacharach
    # ranks take the nodes as validation keyed them; only a plain line pair
    # normalizes its points, once
    cage = random_cage(41, 3, 2)
    indices = [nd.index for nd in cage.nodes()]
    part = (indices[::2], indices[1::2])
    expected = ([report_to_json(fubini_slice_check(cage))]
                + [report_to_json(cayley_bacharach_check(cage, part, k))
                   for k in range(4)])
    pair = report_to_json(cayley_bacharach_pair(Q, *cage.groups, part, 2))
    assert fubini_slice_check(cage).checks[0].details["k-max"] \
        == len(indices)
    calls = []
    original = verify._distinct_points

    def counted(points, field):
        calls.append(field)
        return original(points, field)

    monkeypatch.setattr(verify, "_distinct_points", counted)
    assert ([report_to_json(fubini_slice_check(cage))]
            + [report_to_json(cayley_bacharach_check(cage, part, k))
               for k in range(4)]) == expected
    assert calls == []
    assert report_to_json(
        cayley_bacharach_pair(Q, *cage.groups, part, 2)) == pair
    assert calls == [Q]


def test_nodes_are_built_only_when_a_node_is_asked_for(monkeypatch):
    # validation keeps keys only: the suite and the cage's Cayley-Bacharach
    # ranks build no Node, and the first node access builds all d^n once
    built = []
    init = cage_module.Node.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(cage_module.Node, "__init__", counted)
    cage, plane = random_cage(66, 3, 3), random_cage(67, 3, 2)
    assert run_suite(cage, verify.SUITE_CHECKS).passed
    indices = cage_module.all_indices(3, 2)
    part = (indices[:4], indices[4:])
    assert cayley_bacharach_check(plane, part, 1).passed
    assert built == []
    assert len(cage.nodes()) == 27 and len(built) == 27
    cage.nodes()
    cage.node((1, 2, 3))
    cage.nodes_for(supra_simplicial_indices(3, 3))
    assert len(built) == 27


def test_independence_counterexample():
    report = independence_counterexample()
    assert report.passed
    names = {c.name for c in report.checks}
    assert "witness-through-deficient-only" in names
    assert "witness-outside-group-span" in names
    deficient = check_by_name(report, "deficient-kernel-dimension")
    assert deficient.details["kernel-dim"] >= 3
    supra = check_by_name(report, "supra-kernel-dimension")
    assert supra.details["kernel-dim"] == 2


def test_run_suite_default_and_full():
    cage = random_cage(3, 2, 2)
    assert run_suite(cage).passed
    full = run_suite(cage, ("validation", "interpolation", "minimality",
                            "rigidity", "fubini"))
    assert full.passed
    assert len(full.checks) > len(run_suite(cage).checks)


def test_run_suite_takes_no_node_rank(monkeypatch):
    # minimality and rigidity read the proved simplicial rank, so the suite
    # takes no rank for either, in any order
    cage = random_cage(83, 3, 2)
    minimality = verify_degree_minimality(cage).checks
    rigidity = verify_simplicial_rigidity(cage).checks

    def forbidden(*args, **kwargs):
        raise AssertionError("the simplicial rank must not be computed")

    monkeypatch.setattr(verify, "_evaluation_rank", forbidden)
    report = run_suite(cage, ("minimality", "rigidity"))
    assert report.checks == minimality + rigidity
    report = run_suite(cage, ("rigidity", "validation", "minimality"))
    assert report.checks[:2] == rigidity and report.checks[3:] == minimality


def test_run_suite_unknown_check():
    with pytest.raises(ValueError):
        run_suite(unit_square(), ("no-such-check",))


@pytest.mark.parametrize("checks", [(), ("validation", "validation"),
                                    ("rigidity", "minimality", "rigidity"),
                                    ("validation", "bogus")],
                         ids=["empty", "repeated", "repeated-later",
                              "unknown"])
def test_run_suite_refuses_names_before_validation(checks):
    # an empty list, a repeated name and an unknown name are refused before
    # the validation gate, on a valid and on an invalid cage alike
    from cagekit import Cage
    bad = Cage(Q, [[LinearForm(Q, [1, 0, 0]), LinearForm(Q, [1, 0, 0])],
                   [LinearForm(Q, [0, 1, 0]), LinearForm(Q, [0, 1, -1])]])
    for cage in (unit_square(), bad):
        with pytest.raises(ValueError):
            run_suite(cage, checks)
    assert bad._report is None
    assert not run_suite(bad, ("validation", "rigidity")).passed


def test_suite_reports_failures_for_broken_cage():
    from cagekit import Cage
    bad = Cage(Q, [[LinearForm(Q, [1, 0, 0]), LinearForm(Q, [1, 0, 0])],
                   [LinearForm(Q, [0, 1, 0]), LinearForm(Q, [0, 1, -1])]])
    report = run_suite(bad, ("validation",))
    assert not report.passed
    assert report.checks[0].details["failures"]
    # node-level checks are skipped, not crashed, when validation fails
    full = run_suite(bad, ("interpolation", "minimality", "rigidity"))
    assert not full.passed
    assert len(full.checks) == 1
    assert full.checks[0].details["skipped"] == [
        "interpolation", "minimality", "rigidity"]
