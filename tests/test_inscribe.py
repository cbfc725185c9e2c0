"""Tangent-prescribed inscription and reading forced tangents back off."""

import random
from fractions import Fraction

import pytest

import oracles
from cagekit.cage import Cage, Node, axis_cage, canonical_point, random_cage
from cagekit.demos import build_demo
from cagekit.errors import ShapeError, SingularNodeError
from cagekit.field import FieldDescriptor, FieldElement
from cagekit.inscribe import (
    LambdaMatrix,
    TangentSubspace,
    chart_of,
    inscribe_with_tangent,
    make_tangent,
    node_differentials,
    propagate_tangents,
    tangent_at_node,
    transport_tangent,
)
from cagekit import cage as cage_module, inscribe, linalg
from cagekit.linalg import (Matrix, SubspaceBasis, kernel_basis, rank,
                            span_equal)
from cagekit.poly import HomogPoly, LinearForm
from cagekit.verify import run_suite, smoothness_check

F = FieldDescriptor.rationals()
SQRT2 = FieldDescriptor.extension([-2, 0, 1], label="Q(sqrt 2)")


def unit_square():
    c = axis_cage(F, [(0, 0), (1, 1)])
    c.validate()
    return c


def coerced(vectors):
    return tuple(tuple(F.coerce(x) for x in v) for v in vectors)


def eval_form(form, point):
    acc = form.field.zero()
    for c, x in zip(form.coeffs, point):
        acc = acc + c * x
    return acc


def random_tangent(rng, node, dim):
    n = len(node.point) - 1
    while True:
        vecs = [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
                for _ in range(dim)]
        try:
            return make_tangent(node, vecs)
        except ValueError:
            continue


# -- charts and tangent subspaces ----------------------------------------


def test_chart_of_trailing_one():
    cage = unit_square()
    assert chart_of(cage.node((1, 1))) == 2
    off = Node((1, 1), tuple(F.coerce(x) for x in (Fraction(1, 2), 1, 0)))
    assert chart_of(off) == 1


def test_chart_of_zero_point():
    bad = Node((1, 1), (F.zero(), F.zero(), F.zero()))
    with pytest.raises(ValueError):
        chart_of(bad)


def test_make_tangent_shapes():
    node = unit_square().node((1, 1))
    tau = make_tangent(node, [(1, 2)])
    assert tau.dim == 1 and tau.chart == 2
    assert make_tangent(node, []).dim == 0
    with pytest.raises(ShapeError):
        make_tangent(node, [(1, 2, 3)])
    with pytest.raises(ValueError):
        make_tangent(node, [(1, 2), (2, 4)])


# -- node differentials ----------------------------------------------------


def test_node_differentials_unit_square():
    cage = unit_square()
    diff = node_differentials(cage, cage.node((1, 1)))
    assert diff.entries == coerced(((-1, 0), (0, -1)))
    diff = node_differentials(cage, cage.node((2, 2)))
    assert diff.entries == coerced(((1, 0), (0, 1)))


def test_node_differentials_single_vanishing_factor():
    # row j collapses to (product of the surviving factors) times the
    # differential of the one factor that vanishes at the node
    for seed, d, n in [(0, 2, 2), (1, 3, 2), (2, 2, 3), (3, 3, 3)]:
        cage = random_cage(seed, d, n)
        for node in cage.nodes():
            chart = chart_of(node)
            diff = node_differentials(cage, node)
            for j in range(n):
                values = [eval_form(f, node.point) for f in cage.groups[j]]
                vanishing = [i for i, v in enumerate(values) if v.is_zero()]
                assert vanishing == [node.index[j] - 1]
                scalar = F.one()
                for i, v in enumerate(values):
                    if i != vanishing[0]:
                        scalar = scalar * v
                form = cage.groups[j][vanishing[0]]
                expected = tuple(scalar * form.coeffs[i]
                                 for i in range(n + 1) if i != chart)
                assert diff.entries[j] == expected


def test_node_differentials_invertible_everywhere():
    for seed, d, n in [(4, 2, 2), (5, 3, 2), (6, 4, 2), (7, 2, 3), (8, 3, 3)]:
        cage = random_cage(seed, d, n)
        for node in cage.nodes():
            assert rank(node_differentials(cage, node)) == n


def test_node_differentials_match_expanded_jacobian():
    # the factored rows equal the gradients of the expanded group products
    # with the chart column removed
    cages = [random_cage(seed, d, n) for seed, d, n in
             [(50, 2, 2), (51, 4, 2), (52, 2, 3), (53, 3, 3), (54, 2, 4)]]
    cages.append(build_demo("fermat-cubic-surface").cage)
    for cage in cages:
        polys = cage.group_polynomials()
        for node in cage.nodes():
            chart = chart_of(node)
            grads = [oracles.gradient(p.terms, node.point) for p in polys]
            expected = tuple(tuple(e for i, e in enumerate(g) if i != chart)
                             for g in grads)
            assert node_differentials(cage, node).entries == expected


def assert_cofactor_table_matches_the_oracle(cage, groups, point_of):
    # every node's rows (c_j / s_j, s_j L_{j,I_j}) multiply out to the
    # oracle's cofactor c_j times the form's coefficients, at the point
    # point_of gives the node; each form's row is built once and shared
    table = cage._node_cofactors()
    assert sorted(table) == [node.index for node in cage.nodes()]
    shared = {}
    for node in cage.nodes():
        expected = oracles.cofactors(groups, node.index, point_of(node))
        for j, (hit, (c, vector), c_j) in enumerate(
                zip(node.index, table[node.index], expected)):
            assert [c * a for a in vector] == [c_j * x
                                               for x in groups[j][hit - 1]]
            assert shared.setdefault((j, hit), vector) is vector


def assert_cofactor_table_matches_the_oracle_over_q(cage):
    # over plain Fractions, at the oracle's own canonical node
    groups = [[[c.as_fraction() for c in form.coeffs] for form in group]
              for group in cage.groups]

    def point_of(node):
        point = oracles.canonical_node(groups, node.index)
        assert [x.as_fraction() for x in node.point] == point
        return point
    assert_cofactor_table_matches_the_oracle(cage, groups, point_of)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cofactor_table_matches_the_oracle_over_q(n):
    # d = 1 has one node, whose cofactors are the empty product 1
    for d in range(1, 6):
        cage = random_cage(600 + 10 * n + d, d, n)
        assert_cofactor_table_matches_the_oracle_over_q(cage)


def with_denominators(base):
    # the same hyperplanes, each form divided by one of 2..6
    groups = [[LinearForm(F, [c * Fraction(1, 2 + (7 * j + 3 * i) % 5)
                              for c in form.coeffs])
               for i, form in enumerate(group)]
              for j, group in enumerate(base.groups)]
    cage = Cage(F, groups)
    assert cage.validate().valid
    assert any(c.as_fraction().denominator > 1
               for group in groups for form in group for c in form.coeffs)
    return cage


@pytest.mark.parametrize("seed, d, n", [(61, 3, 2), (62, 2, 3), (63, 4, 2)])
def test_cofactor_table_scales_back_forms_with_denominators(seed, d, n):
    # validation scales each form by the lcm of its denominators; the
    # table divides those scales back out
    base = random_cage(seed, d, n)
    cage = with_denominators(base)
    assert_cofactor_table_matches_the_oracle_over_q(cage)
    assert cage._node_cofactors() != base._node_cofactors()


def random_sqrt2_cage(seed, d, n):
    # coefficients a + b t with t^2 = 2, redrawn until the cage is valid
    rng = random.Random(seed)
    while True:
        cage = Cage(SQRT2, [[LinearForm(SQRT2, [
            SQRT2.element([rng.randint(-3, 3), rng.randint(-2, 2)])
            for _ in range(n + 1)]) for _ in range(d)] for _ in range(n)])
        if cage.validate().valid:
            return cage


@pytest.mark.parametrize("cage", [
    lambda: build_demo("fermat-conic").cage,
    lambda: build_demo("fermat-cubic-surface").cage,
    lambda: random_sqrt2_cage(71, 1, 2),
    lambda: random_sqrt2_cage(72, 3, 2),
    lambda: random_sqrt2_cage(73, 2, 3),
    lambda: random_sqrt2_cage(74, 4, 1),
], ids=["fermat-conic", "fermat-cubic-surface", "sqrt2-1-2", "sqrt2-3-2",
        "sqrt2-2-3", "sqrt2-4-1"])
def test_cofactor_table_matches_the_oracle_over_number_fields(cage):
    # at the demo cages' nodes w_c^(d-1) is 1 or -1, its own inverse; the
    # random cages' nodes exercise the inverse
    cage = cage()
    groups = [[form.coeffs for form in group] for group in cage.groups]
    assert_cofactor_table_matches_the_oracle(cage, groups,
                                             lambda node: node.point)
    table = cage._node_cofactors()
    assert cage.d == 1 or any(not c.is_rational()
                              for row in table.values() for c, _ in row)


def test_cofactor_table_is_built_only_when_a_node_is_visited():
    cage = random_cage(64, 3, 3)
    report = run_suite(cage, ("validation", "interpolation", "minimality",
                              "rigidity"))
    assert report.passed
    assert cage._cofactors is None
    node_differentials(cage, cage.node((1, 2, 3)))
    assert len(cage._cofactors) == 27


def test_inscription_evaluates_no_form(monkeypatch):
    # the cofactor table is the one place node values come from
    cages = [random_cage(65, 3, 3), build_demo("fermat-cubic-surface").cage]

    def refuse(self, point):
        raise AssertionError("a form was evaluated")
    monkeypatch.setattr(LinearForm, "evaluate", refuse)
    monkeypatch.setattr(HomogPoly, "evaluate", refuse)
    for cage in cages:
        node = cage.node((1, 2, 3))
        tangent = make_tangent(node, [(1, 0, 2)])
        variety = inscribe_with_tangent(cage, node, tangent)
        assert tangent_at_node(variety, cage.node((3, 1, 2))).dim == 1
        forced = propagate_tangents(cage, node, tangent)
        assert len(forced) == 27


def test_differential_rows_prepare_nothing(monkeypatch):
    # with the table built, every node's rows are read from it: inside
    # _differential_rows no form is prepared or converted, and the rows
    # and tangents come out as before
    cages = [with_denominators(random_cage(61, 3, 2)),
             random_sqrt2_cage(73, 2, 3),
             build_demo("fermat-cubic-surface").cage]
    for cage in cages:
        cage._node_cofactors()
    inside = []
    real_rows = inscribe._differential_rows

    def rows(cage, node):
        inside.append(True)
        try:
            return real_rows(cage, node)
        finally:
            inside.pop()

    def guarded(name, original):
        def wrapper(*args):
            assert not inside, f"_differential_rows called {name}"
            return original(*args)
        return wrapper

    monkeypatch.setattr(inscribe, "_differential_rows", rows)
    for module in (inscribe, linalg, cage_module):
        for name in ("_prepared",):
            monkeypatch.setattr(module, name,
                                guarded(name, getattr(linalg, name)))
    for cage in cages:
        groups = [[form.coeffs for form in group] for group in cage.groups]
        for node in cage.nodes():
            expected = oracles.cofactors(groups, node.index, node.point)
            chart = chart_of(node)
            assert node_differentials(cage, node).entries == tuple(
                tuple(c * x for i, x in enumerate(groups[j][hit - 1])
                      if i != chart)
                for j, (hit, c) in enumerate(zip(node.index, expected)))
        node = cage.nodes()[-1]
        tangent = make_tangent(node, [[1] + [0] * (cage.n - 1)])
        forced = propagate_tangents(cage, node, tangent)
        assert forced[node.index].basis == tangent.basis
        assert len(forced) == cage.d ** cage.n


def test_node_differentials_reject_points_off_the_cage():
    cage = unit_square()
    inside = Node((1, 1), coerced(((Fraction(1, 2), Fraction(1, 2), 1),))[0])
    with pytest.raises(ValueError):
        node_differentials(cage, inside)


def test_node_differentials_reject_indices_off_the_grid():
    # a cage node's point under an index the cage does not have, or under
    # another node's index
    cage = unit_square()
    point = cage.node((1, 1)).point
    for index in ((3, 1), (0, 1), (1, 1, 1), (1,), (1, 2)):
        with pytest.raises(ValueError):
            node_differentials(cage, Node(index, point))


def test_foreign_cage_rejected():
    cage = unit_square()
    variety = LambdaMatrix(cage, coerced(((2, -1),)))
    assert smoothness_check(variety, cage).passed
    other = unit_square()
    with pytest.raises(ValueError):
        smoothness_check(variety, other)


# -- inscription -----------------------------------------------------------


def test_inscribe_unit_square_slope_two():
    cage = unit_square()
    node = cage.node((1, 1))
    variety = inscribe_with_tangent(cage, node, make_tangent(node, [(1, 2)]))
    assert variety.s == 1
    assert variety.rows == coerced(((-2, 1),))
    documented = LambdaMatrix(cage, coerced(((2, -1),)))
    assert variety.same_variety(documented)


def test_inscribe_diagonal_is_reducible_conic():
    # tangent along the diagonal forces L1 - L2, which factors as
    # (x - y)(x + y - h) and passes through all four grid nodes
    cage = unit_square()
    node = cage.node((1, 1))
    variety = inscribe_with_tangent(cage, node, make_tangent(node, [(1, 1)]))
    assert variety.rows == coerced(((-1, 1),))
    poly = variety.polynomials()[0]
    for q in cage.nodes():
        assert poly.evaluate(q.point).is_zero()


def test_inscribe_zero_tangent_gives_identity_rows():
    cage = unit_square()
    node = cage.node((1, 1))
    variety = inscribe_with_tangent(cage, node, make_tangent(node, []))
    assert variety.s == 2
    assert variety.rows == Matrix(F, oracles.identity(2)).entries
    groups = cage.group_polynomials()
    for poly, group in zip(variety.polynomials(), groups):
        assert poly.coefficient_vector() == group.coefficient_vector()
    for q in cage.nodes():
        assert tangent_at_node(variety, q).dim == 0


def test_inscribe_mismatched_attachments():
    cage = unit_square()
    node = cage.node((1, 1))
    tau = make_tangent(node, [(1, 2)])
    with pytest.raises(ValueError):
        inscribe_with_tangent(cage, cage.node((2, 2)), tau)
    skewed = TangentSubspace(node, 0, tau.basis)
    with pytest.raises(ValueError):
        inscribe_with_tangent(cage, node, skewed)
    full = make_tangent(node, [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        inscribe_with_tangent(cage, node, full)


def test_inscribe_codimension_matches_tangent():
    rng = random.Random(17)
    for seed, d, n in [(10, 2, 2), (11, 3, 2), (12, 2, 3), (13, 3, 3)]:
        cage = random_cage(seed, d, n)
        node = rng.choice(cage.nodes())
        for dim in range(1, n):
            tau = random_tangent(rng, node, dim)
            variety = inscribe_with_tangent(cage, node, tau)
            assert variety.s == n - dim
            assert len(variety.rows) == n - dim
            assert all(len(row) == n for row in variety.rows)
            for poly in variety.polynomials():
                for q in cage.nodes():
                    assert poly.evaluate(q.point).is_zero()


def test_inscribe_ignores_tangent_basis_rescale():
    cage = unit_square()
    node = cage.node((1, 1))
    a = inscribe_with_tangent(cage, node, make_tangent(node, [(1, 2)]))
    b = inscribe_with_tangent(cage, node, make_tangent(node, [(2, 4)]))
    assert a.rows == b.rows
    assert a.same_variety(b)


# -- reading tangents back -------------------------------------------------


def test_tangent_at_node_documented_slope():
    cage = unit_square()
    variety = LambdaMatrix(cage, coerced(((2, -1),)))
    tau = tangent_at_node(variety, cage.node((2, 2)))
    assert span_equal(SubspaceBasis(2, tau.basis),
                      SubspaceBasis(2, coerced(((1, 2),))))


def test_tangent_at_node_roundtrip():
    rng = random.Random(23)
    for seed, d, n in [(20, 2, 2), (21, 3, 2), (22, 2, 3), (23, 3, 3)]:
        cage = random_cage(seed, d, n)
        node = rng.choice(cage.nodes())
        for dim in range(1, n):
            tau = random_tangent(rng, node, dim)
            variety = inscribe_with_tangent(cage, node, tau)
            back = tangent_at_node(variety, node)
            assert back.dim == dim
            assert span_equal(SubspaceBasis(n, back.basis),
                              SubspaceBasis(n, tau.basis))


def test_tangent_at_node_rejects_dependent_rows():
    cage = unit_square()
    fake = LambdaMatrix(cage, coerced(((1, 0), (1, 0))))
    with pytest.raises(SingularNodeError):
        tangent_at_node(fake, cage.node((1, 1)))


def test_propagate_forces_the_same_variety_everywhere():
    for cage in [unit_square(), random_cage(31, 3, 2)]:
        start = cage.node((1,) * cage.n)
        tau = make_tangent(start, [(1, 2)] if cage.n == 2 else [(1, 2, 3)])
        variety = inscribe_with_tangent(cage, start, tau)
        forced = propagate_tangents(cage, start, tau)
        assert set(forced) == {q.index for q in cage.nodes()}
        again = forced[start.index]
        assert span_equal(SubspaceBasis(cage.n, again.basis),
                          SubspaceBasis(cage.n, tau.basis))
        for q in cage.nodes():
            redone = inscribe_with_tangent(cage, q, forced[q.index])
            assert redone.same_variety(variety)
            assert redone.rows == variety.rows


def test_tangent_at_node_rejects_lambda_rows_of_the_wrong_length():
    # a short or long row used to be cut to the shorter length by zip
    cage = random_cage(5, 3, 3)
    node = cage.node((1, 2, 3))
    for row in ((1, 2), (1, 2, 3, 4)):
        variety = LambdaMatrix(cage, coerced((row,)))
        with pytest.raises(ShapeError, match="lambda rows need 3 entries"):
            tangent_at_node(variety, node)


def test_inscribe_rejects_tangent_vectors_of_the_wrong_length():
    cage = random_cage(5, 3, 3)
    node = cage.node((1, 2, 3))
    for vector in ((1, 2), (1, 2, 3, 4)):
        tangent = TangentSubspace(node, chart_of(node), coerced((vector,)))
        with pytest.raises(ShapeError, match="need 3 chart-local entries"):
            inscribe_with_tangent(cage, node, tangent)


# -- integer rows over Q against the Fraction oracle -----------------------


def oracle_differentials(cage, index):
    # c_j times the chart-local coefficients of L_{j,I_j}, all from the
    # oracle's own node and cofactors over plain Fractions
    groups = [[[c.as_fraction() for c in form.coeffs] for form in group]
              for group in cage.groups]
    point = oracles.canonical_node(groups, index)
    chart = max(i for i, x in enumerate(point) if x)
    return [[c * a for i, a in enumerate(groups[j][index[j] - 1])
             if i != chart]
            for j, c in enumerate(oracles.cofactors(groups, index, point))]


def oracle_lambda(diff, vectors):
    n = len(diff)
    if not vectors:
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return oracles.kernel([[sum(a * x for a, x in zip(row, v))
                            for row in diff] for v in vectors])


def oracle_tangent(diff, lambdas):
    return oracles.kernel([[sum(lam * row[i] for lam, row in zip(lams, diff))
                            for i in range(len(diff))] for lams in lambdas])


def plain(vectors):
    return [[x.as_fraction() for x in v] for v in vectors]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integer_rows_match_the_fraction_oracle(n):
    # every node with a random tangent of random dimension, with fractional
    # entries, on cages with integer forms and with forms that carry
    # denominators: lambda rows, the tangent read back at the node and the
    # tangent at a second node equal the oracle's kernels entry for entry;
    # the 256- and 625-node cages take one seed, with denominators
    rng = random.Random(90 + n)
    for d in range(2, 6):
        for seed in (1, 2):
            small = d ** n <= 125
            if seed == 2 and not small:
                continue
            base = random_cage(700 + 100 * n + 10 * d + seed, d, n)
            for cage in (base,) * small + (with_denominators(base),):
                nodes = cage.nodes()
                diffs = {q.index: oracle_differentials(cage, q.index)
                         for q in nodes}
                for node in nodes:
                    tau = random_fractional_tangent(rng, node,
                                                    rng.randrange(n))
                    variety = inscribe_with_tangent(cage, node, tau)
                    lambdas = oracle_lambda(diffs[node.index],
                                            plain(tau.basis))
                    assert plain(variety.rows) == lambdas
                    for q in (node, rng.choice(nodes)):
                        assert plain(tangent_at_node(variety, q).basis) == \
                            oracle_tangent(diffs[q.index], lambdas)


def random_fractional_tangent(rng, node, dim):
    n = len(node.point) - 1
    while True:
        vecs = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(dim)]
        try:
            return make_tangent(node, vecs)
        except ValueError:
            continue


def test_number_field_inscription_matches_the_matrix_path():
    # over Q[t]/(m) the rows stay field elements; they give the kernels that
    # node_differentials, Matrix and kernel_basis give
    cage = build_demo("fermat-cubic-surface").cage
    rng = random.Random(91)
    field = cage.field
    for node in cage.nodes():
        tau = random_tangent(rng, node, rng.randint(1, 2))
        diff = node_differentials(cage, node)
        expected = kernel_basis(Matrix(field, [
            oracles.matvec(diff.entries, v) for v in tau.basis])).vectors
        variety = inscribe_with_tangent(cage, node, tau)
        assert variety.rows == expected
        q = rng.choice(cage.nodes())
        diff = oracles.transpose(node_differentials(cage, q).entries)
        jac = Matrix(field, [oracles.matvec(diff, row)
                             for row in variety.rows])
        assert tangent_at_node(variety, q).basis == kernel_basis(jac).vectors


def test_inscription_over_q_multiplies_no_field_element(monkeypatch):
    # over Q the rows are ints: no kernel_basis, node_differentials, Matrix
    # or FieldElement product; over a number field the same counters see
    # products but still no Matrix
    cases = []
    for cage in (random_cage(66, 3, 3),
                 with_denominators(random_cage(67, 2, 4)),
                 build_demo("fermat-cubic-surface").cage):
        node = cage.nodes()[5]
        rng = random.Random(cage.n)
        cases.append((cage, node, random_tangent(rng, node, 1)))
        cage._node_cofactors()
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for module in (linalg, inscribe):
        monkeypatch.setattr(module, "kernel_basis",
                            counted("kernel_basis", linalg.kernel_basis),
                            raising=False)
    monkeypatch.setattr(inscribe, "node_differentials",
                        counted("node_differentials", node_differentials))
    monkeypatch.setattr(Matrix, "__init__", counted("Matrix", Matrix.__init__))
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(FieldElement, name,
                            counted("mul", getattr(FieldElement, name)))
    for cage, node, tau in cases:
        variety = inscribe_with_tangent(cage, node, tau)
        assert inscribe_with_tangent(cage, node,
                                     make_tangent(node, [])).s == cage.n
        for q in cage.nodes():
            assert tangent_at_node(variety, q).dim == 1
        if cage.field.kind == "rationals":
            assert calls == []
    assert set(calls) == {"mul"}


def test_foreign_node_raises_also_for_a_zero_tangent():
    cage, other = random_cage(68, 3, 2), random_cage(69, 3, 2)
    foreign = other.node((1, 2))
    assert foreign != cage.node((1, 2))
    for dim in (0, 1):
        tau = make_tangent(foreign, [(1, 2)][:dim])
        with pytest.raises(ValueError, match="not the cage's node"):
            inscribe_with_tangent(cage, foreign, tau)
    node = cage.node((1, 2))
    variety = inscribe_with_tangent(cage, node, make_tangent(node, [(1, 2)]))
    with pytest.raises(ValueError, match="not the cage's node"):
        tangent_at_node(variety, foreign)


def assert_propagation_reads_tangent_at_node(cage, node, tau):
    # the one pass over the node table gives, in node order, the tangent
    # tangent_at_node reads at every node, entry for entry
    variety = inscribe_with_tangent(cage, node, tau)
    forced = propagate_tangents(cage, node, tau)
    assert list(forced) == [q.index for q in cage.nodes()]
    assert forced == {q.index: tangent_at_node(variety, q)
                      for q in cage.nodes()}
    return variety, forced


@pytest.mark.parametrize("n, d", [(2, 3), (3, 2), (2, 4), (2, 5), (4, 2),
                                  (3, 3)])
def test_propagation_matches_tangent_at_node_and_the_fraction_oracle(n, d):
    # the shapes the benchmark inscribes, with integer forms and with forms
    # that carry denominators, at every tangent dimension 0..n-1: each
    # forced tangent is the Fraction oracle's kernel of lambda D_q, D_q
    # built from oracles.cofactors at the oracle's own node
    rng = random.Random(100 * n + d)
    base = random_cage(900 + 10 * n + d, d, n)
    for cage in (base, with_denominators(base)):
        diffs = {q.index: oracle_differentials(cage, q.index)
                 for q in cage.nodes()}
        for dim in range(n):
            node = rng.choice(cage.nodes())
            tau = random_fractional_tangent(rng, node, dim)
            variety, forced = assert_propagation_reads_tangent_at_node(
                cage, node, tau)
            lambdas = plain(variety.rows)
            for q in cage.nodes():
                assert plain(forced[q.index].basis) == \
                    oracle_tangent(diffs[q.index], lambdas)


@pytest.mark.parametrize("seed, d, n", [(75, 3, 2), (76, 2, 3), (77, 2, 2)])
def test_propagation_over_sqrt2_matches_the_cofactor_oracle(seed, d, n):
    # over Q(sqrt 2) the oracle's rows are field elements: lambda times
    # oracles.cofactors times the chart-local forms, at the node's point,
    # with the kernel kernel_basis gives
    cage = random_sqrt2_cage(seed, d, n)
    groups = [[form.coeffs for form in group] for group in cage.groups]
    rng = random.Random(seed)
    for dim in range(n):
        node = rng.choice(cage.nodes())
        tau = random_tangent(rng, node, dim)
        variety, forced = assert_propagation_reads_tangent_at_node(
            cage, node, tau)
        for q in cage.nodes():
            chart = chart_of(q)
            diff = [[c * a for i, a in enumerate(groups[j][hit - 1])
                     if i != chart] for j, (hit, c) in enumerate(
                         zip(q.index, oracles.cofactors(groups, q.index,
                                                        q.point)))]
            jac = Matrix(cage.field, [oracles.matvec(
                oracles.transpose(diff), lams) for lams in variety.rows])
            assert forced[q.index].basis == kernel_basis(jac).vectors


def test_propagation_checks_the_starting_node_only(monkeypatch):
    # one pass: the inscription reads the starting node's checked rows,
    # and the 27 forced tangents come from the cage's own tables
    cage = random_cage(78, 3, 3)
    node = cage.node((2, 1, 3))
    tau = make_tangent(node, [(1, 0, 2)])
    calls = []
    real_rows = inscribe._differential_rows

    def rows(cage, node):
        calls.append(node.index)
        return real_rows(cage, node)
    monkeypatch.setattr(inscribe, "_differential_rows", rows)
    forced = propagate_tangents(cage, node, tau)
    assert len(forced) == 27
    assert calls == [node.index]


def test_zero_lambda_row_leaves_the_variety_singular():
    cage = random_cage(79, 2, 2)
    fake = LambdaMatrix(cage, coerced(((0, 0),)))
    with pytest.raises(SingularNodeError):
        tangent_at_node(fake, cage.node((1, 2)))


# -- transport along projective maps ----------------------------------------


def moved_cage(cage, g):
    # the cage of the images of the hyperplanes under the projective map g:
    # each form moves by the inverse transpose of g
    dual = oracles.transpose(linalg.invert(g).entries)
    moved = Cage(cage.field, [[LinearForm(cage.field,
                                          oracles.matvec(dual, f.coeffs))
                               for f in forms] for forms in cage.groups])
    assert moved.validate().valid
    return moved


def test_transport_matches_transformed_inscription():
    maps = {
        2: Matrix(F, coerced(((1, 2, 0), (0, 1, 1), (1, 0, 3)))),
        3: Matrix(F, coerced(((1, 0, 0, 1), (0, 1, 0, 0),
                              (2, 0, 1, 0), (0, 0, 0, 1)))),
    }
    rng = random.Random(41)
    for seed, d, n in [(40, 2, 2), (41, 3, 2), (42, 2, 3)]:
        cage = random_cage(seed, d, n)
        g = maps[n]
        moved = moved_cage(cage, g)
        node = rng.choice(cage.nodes())
        image = moved.node(node.index)
        assert image.point == canonical_point(
            oracles.matvec(g.entries, node.point))
        tau = random_tangent(rng, node, n - 1)
        carried = transport_tangent(tau, g, image)
        original = inscribe_with_tangent(cage, node, tau)
        transformed = inscribe_with_tangent(moved, image, carried)
        assert transformed.rows == original.rows


def test_transport_shape_and_chart_guards():
    cage = unit_square()
    node = cage.node((1, 1))
    tau = make_tangent(node, [(1, 2)])
    with pytest.raises(ShapeError):
        transport_tangent(tau, Matrix(F, coerced(((1, 0, 0), (0, 1, 0)))), node)
    swap = Matrix(F, coerced(((1, 0, 0), (0, 0, 1), (0, 1, 0))))
    # g moves (0,0,1) off the plane z=1, so the original node is not a
    # valid image and its chart collapses
    with pytest.raises(ValueError):
        transport_tangent(tau, swap, node)


def test_transport_checks_the_image_node_and_the_pushed_rank():
    cage = axis_cage(F, [(0, 0), (1, 2)])
    node = cage.node((1, 1))
    tau = make_tangent(node, [(1, 2)])
    identity = Matrix(F, coerced(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert transport_tangent(tau, identity, node) == tau
    # the identity does not move node (1, 1) to node (2, 2)
    with pytest.raises(ValueError, match="not the image"):
        transport_tangent(tau, identity, cage.node((2, 2)))
    # diag(0, 0, 1) fixes the node and sends (1, 2) to (0, 0)
    collapse = Matrix(F, coerced(((0, 0, 0), (0, 0, 0), (0, 0, 1))))
    with pytest.raises(ValueError, match="dependent"):
        transport_tangent(tau, collapse, node)
