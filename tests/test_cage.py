"""Cage construction, validation, node combinatorics, random cages."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import oracles
from cagekit import (Cage, CageValidationError, FieldDescriptor, LinearForm,
                     Matrix, MustValidateError, SchemaError, ShapeError,
                     all_indices, axis_cage, canonical_point, norm,
                     random_cage, simplicial_indices,
                     supra_simplicial_indices)
from cagekit import cage as cage_module
from cagekit.cage import validated
from cagekit.errors import ReducibleModulusError
from cagekit.linalg import kernel_basis


Q = FieldDescriptor.rationals()
SQRT2 = FieldDescriptor.extension([-2, 0, 1], label="Q(sqrt 2)")
SPLIT = FieldDescriptor.extension([-1, 0, 1], label="Q[t]/(t^2-1)")


def unit_square():
    return axis_cage(Q, [(0, 0), (1, 1)])


def line(*coeffs):
    return LinearForm(Q, list(coeffs))


def test_norm():
    assert norm((1, 2, 3)) == 6


def test_all_indices_lexicographic():
    idx = all_indices(2, 2)
    assert idx == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert len(all_indices(3, 4)) == 81


def test_selection_counts_and_kinds():
    simp = simplicial_indices(3, 3)
    supra = supra_simplicial_indices(3, 3)
    assert simp.kind == "simplicial" and len(simp) == 10
    assert supra.kind == "supra-simplicial" and len(supra) == 17
    assert set(simp.indices) <= set(supra.indices)
    assert all(norm(i) <= 5 for i in simp.indices)
    assert all(norm(i) <= 6 for i in supra.indices)


def test_axis_cage_nodes_are_grid():
    cage = axis_cage(Q, [(0, 0), (1, 1), (2, 2)])
    points = {tuple(c.as_fraction() for c in nd.point)
              for nd in cage.nodes()}
    assert points == {(x, y, 1) for x in (0, 1, 2) for y in (0, 1, 2)}


def test_axis_cage_index_to_point():
    cage = unit_square()
    assert [c.as_fraction() for c in cage.node((1, 1)).point] == [0, 0, 1]
    assert [c.as_fraction() for c in cage.node((2, 1)).point] == [1, 0, 1]
    assert [c.as_fraction() for c in cage.node((1, 2)).point] == [0, 1, 1]


def test_axis_cage_repeated_value_rejected():
    with pytest.raises(ValueError):
        axis_cage(Q, [(0, 0), (0, 1)])


def test_nodes_require_validation():
    cage = Cage(Q, [[line(1, 0, 0), line(1, 0, -1)],
                    [line(0, 1, 0), line(0, 1, -1)]])
    with pytest.raises(MustValidateError):
        cage.nodes()
    cage.validate()
    assert len(cage.nodes()) == 4


def test_duplicated_hyperplane_reports_coincident_nodes():
    cage = Cage(Q, [[line(1, 0, 0), line(1, 0, 0)],
                    [line(0, 1, 0), line(0, 1, -1)]])
    report = cage.validate()
    assert not report.valid
    assert any(f.kind == "coincident-nodes" for f in report.failures)
    with pytest.raises(MustValidateError):
        cage.nodes()


def test_proportional_cross_color_forms_degenerate():
    cage = Cage(Q, [[line(1, 0, 0), line(1, 0, -1)],
                    [line(2, 0, 0), line(0, 1, -1)]])
    report = cage.validate()
    assert not report.valid
    assert any(f.kind == "degenerate-tuple" for f in report.failures)


def test_concurrent_lines_fail_incidence():
    # both blue lines pass through the red/blue node at the origin
    cage = Cage(Q, [[line(1, 0, 0), line(1, 0, -1)],
                    [line(0, 1, 0), line(1, 1, 0)]])
    report = cage.validate()
    assert not report.valid
    kinds = {f.kind for f in report.failures}
    assert kinds & {"incidence", "coincident-nodes"}


def test_validation_failures_carry_indices():
    cage = Cage(Q, [[line(1, 0, 0), line(1, 0, 0)],
                    [line(0, 1, 0), line(0, 1, -1)]])
    report = cage.validate()
    for f in report.failures:
        assert tuple(f.index) in set(all_indices(2, 2))


def test_group_polynomial_unit_square():
    cage = unit_square()
    lx = cage.group_polynomial(0)
    # x(x - h) = x^2 - xh
    assert lx.terms == {(2, 0, 0): Q.one(), (1, 0, 1): Q.from_rational(-1)}
    for nd in cage.nodes():
        assert lx.evaluate(nd.point).is_zero()


def test_group_polynomials_independent():
    # validation implies independence (verify_supra_interpolation's
    # docstring); the rank cross-checks that argument
    from cagekit import build_demo, rank
    cages = [random_cage(seed, d, n) for seed in (1, 2, 3)
             for d, n in ((3, 2), (2, 3), (3, 3), (2, 4))]
    cages.append(build_demo("fermat-cubic-surface").cage)
    for cage in cages:
        vectors = [cage.group_polynomial(j).coefficient_vector()
                   for j in range(cage.n)]
        assert rank(Matrix(cage.field, vectors)) == cage.n


def test_pencil_unit_square():
    cage = unit_square()
    p = cage.pencil([1, -1])
    # x^2 - xh - y^2 + yh = (x - y)(x + y - h)
    assert p.terms == {(2, 0, 0): Q.one(), (1, 0, 1): Q.from_rational(-1),
                       (0, 2, 0): Q.from_rational(-1),
                       (0, 1, 1): Q.one()}
    assert cage.pencil([1, 0]) == cage.group_polynomial(0)


def test_pencil_degenerate():
    cage = unit_square()
    with pytest.raises(ValueError):
        cage.pencil([0, 0])
    with pytest.raises(ShapeError):
        cage.pencil([1])


def test_slice_index_set_relations():
    # restriction of the distinguished index sets to the i1 = s hyperplane
    for d, n in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        supra = set(supra_simplicial_indices(d, n).indices)
        simp = set(simplicial_indices(d, n).indices)
        for s in range(1, d + 1):
            rest_supra = {i[1:] for i in supra if i[0] == s}
            rest_simp = {i[1:] for i in simp if i[0] == s}
            if s == 1:
                assert rest_supra == set(
                    supra_simplicial_indices(d, n - 1).indices)
            else:
                assert rest_supra == set(
                    simplicial_indices(d - s + 2, n - 1).indices)
            assert rest_simp == set(
                simplicial_indices(d - s + 1, n - 1).indices)


def test_validated_raises_with_the_report():
    cage = unit_square()
    assert validated(cage, "unused") is cage
    bad = Cage(Q, [[line(1, 0, 0), line(1, 0, 0)],
                   [line(0, 1, 0), line(0, 1, -1)]])
    with pytest.raises(CageValidationError,
                       match="^probe failed validation$") as exc:
        validated(bad, "probe failed validation")
    assert exc.value.report is bad.validate()
    assert exc.value.report.failures


def test_random_cage_deterministic():
    a = random_cage(99, 3, 2)
    b = random_cage(99, 3, 2)
    assert a.groups == b.groups
    assert a.attempts == b.attempts


def test_random_cage_seeds_all_valid():
    attempts = []
    for seed in range(100):
        cage = random_cage(seed, 3, 3)
        assert cage.validate().valid
        assert len(cage.nodes()) == 27
        attempts.append(cage.attempts)
    assert max(attempts) >= 1


def test_random_cage_skips_only_candidates_validation_rejects(monkeypatch):
    # a candidate with two proportional forms is rejected unvalidated;
    # validating it anyway rejects it too, so neither the cage nor the
    # attempt count changes
    shapes = [(seed, d, n) for d, n in ((6, 1), (8, 2))
              for seed in range(1, 21)]
    fast = [random_cage(*shape) for shape in shapes]
    flagged, valid = [], []
    real_pair, real_validate = cage_module._has_proportional_pair, \
        Cage.validate

    def pair(vectors):
        flagged.append(real_pair(vectors))
        return False

    def validate(self):
        report = real_validate(self)
        valid.append(report.valid)
        return report
    monkeypatch.setattr(cage_module, "_has_proportional_pair", pair)
    monkeypatch.setattr(Cage, "validate", validate)
    for shape, cage in zip(shapes, fast):
        slow = random_cage(*shape)
        assert slow.groups == cage.groups
        assert slow.attempts == cage.attempts
    assert len(flagged) == len(valid) and sum(flagged) >= 10
    assert not any(f and v for f, v in zip(flagged, valid))


def test_random_cage_gives_up_after_max_attempts(monkeypatch):
    monkeypatch.setattr(cage_module, "MAX_ATTEMPTS", 0)
    with pytest.raises(ValueError, match=r"^no valid cage found in 0 "
                       r"attempts \(seed 1, d=2, n=2\)$"):
        random_cage(1, 2, 2)


def test_random_cage_validates_a_bounded_number_of_nodes(monkeypatch):
    # a cage of more than 256 nodes draws 200 * 256 // d^n candidates, at
    # d=16, n=3 twelve; up to 256 nodes it draws all 200, of which three
    # hold a proportional pair at seed 1, d=5, n=2
    calls = []

    def invalid(self):
        calls.append(self.d ** self.n)
        return SimpleNamespace(valid=False)
    monkeypatch.setattr(Cage, "validate", invalid)
    with pytest.raises(ValueError, match=r"^no valid cage found in 12 "
                       r"attempts \(seed 1, d=16, n=3\)$"):
        random_cage(1, 16, 3)
    assert 0 < len(calls) <= 12
    calls.clear()
    with pytest.raises(ValueError, match=r"^no valid cage found in 200 "
                       r"attempts \(seed 1, d=5, n=2\)$"):
        random_cage(1, 5, 2)
    assert calls == [25] * 197


def test_proportional_pairs():
    assert cage_module._has_proportional_pair([[1, 2, 0], [0, 1, 1],
                                               [-2, -4, 0]])
    assert cage_module._has_proportional_pair([[0, 3], [0, -1]])
    assert not cage_module._has_proportional_pair([[1, 2, 0], [2, 1, 0],
                                                   [1, -2, 0]])


def test_canonical_point():
    p = canonical_point((Q.from_rational(2), Q.from_rational(4),
                         Q.from_rational(2)))
    assert [c.as_fraction() for c in p] == [1, 2, 1]
    # trailing zeros: the last nonzero coordinate becomes 1
    p = canonical_point((Q.from_rational(3), Q.from_rational(6), Q.zero()))
    assert [c.as_fraction() for c in p] == [Fraction(1, 2), 1, 0]
    with pytest.raises(ValueError):
        canonical_point((Q.zero(), Q.zero()))


def test_cage_shape_errors():
    with pytest.raises(ShapeError):
        Cage(Q, [[line(1, 0, 0)], [line(0, 1, 0), line(0, 1, -1)]])
    with pytest.raises(ShapeError):
        Cage(Q, [[LinearForm(Q, [1, 0])], [LinearForm(Q, [0, 1])]])


def test_random_cage_refuses_empty_shapes():
    # d or n below 1 is a shape error, not a ZeroDivisionError from the
    # attempt cap or a TypeError from a fractional one
    for d, n in ((0, 2), (2, 0), (-1, 2), (2, -1), (0, 0)):
        with pytest.raises(ShapeError, match="d >= 1 and n >= 1"):
            random_cage(1, d, n)


def test_cage_size_is_capped():
    # max(d, 2)^n above MAX_NODES is refused before sampling or validation,
    # d = 1 with a huge n included
    from cagekit.cage import MAX_NODES, _check_size
    from cagekit.serialize import cage_from_json
    _check_size(2, 12)
    _check_size(MAX_NODES, 1)
    for d, n in ((40, 5), (MAX_NODES + 1, 1), (1, 13), (1, 10 ** 9)):
        with pytest.raises(ShapeError, match=str(MAX_NODES)):
            random_cage(1, d, n)
    wide = [[line(1, -i) for i in range(MAX_NODES + 1)]]
    with pytest.raises(ShapeError, match=str(MAX_NODES)):
        Cage(Q, wide)
    with pytest.raises(SchemaError, match=str(MAX_NODES)):
        cage_from_json({"kind": "cage", "field": {"kind": "rationals"},
                        "groups": [[["1", str(-i)]
                                    for i in range(MAX_NODES + 1)]]})


def test_summary():
    cage = unit_square()
    s = cage.summary()
    assert s["n"] == 2 and s["d"] == 2 and s["nodes"] == 4


def test_validation_report_counts_every_node():
    cage = axis_cage(Q, [(0, 0), (1, 1), (2, 2)])
    report = cage.validate()
    assert report.valid and report.node_count == 9


def test_node_lookup_unknown_index():
    cage = unit_square()
    with pytest.raises(KeyError):
        cage.node((3, 1))


# -- validation along lines against the per-node oracle ----------------------

def candidate(rng, field, n, d):
    """An unvalidated cage with coefficients in [-2, 2] (plus [-1, 1] * t
    over an extension); about one form in six repeats an earlier one, of
    the same color or another, so every failure kind occurs."""
    earlier = []
    groups = []
    for _ in range(n):
        forms = []
        for _ in range(d):
            if earlier and rng.random() < 0.15:
                coeffs = rng.choice(earlier)
            else:
                coeffs = [0] * (n + 1)
                while not any(coeffs):
                    coeffs = [field.element(
                        [rng.randint(-2, 2)]
                        + [rng.randint(-1, 1)] * (field.degree - 1))
                        for _ in range(n + 1)]
            earlier.append(coeffs)
            forms.append(LinearForm(field, coeffs))
        groups.append(forms)
    return Cage(field, groups)


def outcome(validate):
    """The report and nodes as plain data, or the reducible-modulus error."""
    try:
        return validate()
    except ReducibleModulusError as exc:
        return ("ReducibleModulusError", str(exc))


def line_outcome(cage):
    report = cage.validate()
    failures = [(f.kind, f.index, f.detail) for f in report.failures]
    nodes = [(nd.index, nd.point) for nd in cage.nodes()] if report.valid \
        else None
    return report.valid, report.node_count, failures, nodes


def node_outcome(cage):
    field = cage.field
    failures, nodes = oracles.validate_per_node(
        [[form.coeffs for form in group] for group in cage.groups],
        lambda rows: kernel_basis(Matrix(field, rows)).vectors,
        canonical_point)
    return not failures, len(nodes), failures, nodes if not failures else None


@pytest.mark.parametrize("field, per_shape", [(Q, 3), (SQRT2, 3), (SPLIT, 3)],
                         ids=["Q", "Q(sqrt 2)", "Q[t]/(t^2-1)"])
def test_validation_matches_per_node_oracle(field, per_shape):
    # the whole report (kinds, indices, details, order) and every node point
    # agree with validation one node at a time, for n = 1..4 and d = 1..4;
    # over Q[t]/(t^2 - 1) both raise ReducibleModulusError on the same cages
    seen = {"valid": 0, "raised": 0}
    for n in range(1, 5):
        for d in range(1, 5):
            for k in range(per_shape):
                rng = random.Random(1000 * n + 100 * d + k)
                cage = candidate(rng, field, n, d)
                got = outcome(lambda: line_outcome(cage))
                assert got == outcome(lambda: node_outcome(cage)), (n, d, k)
                if got[0] == "ReducibleModulusError":
                    seen["raised"] += 1
                    continue
                seen["valid"] += got[0]
                for kind, _, _ in got[2]:
                    seen[kind] = seen.get(kind, 0) + 1
    assert seen["valid"] and seen["degenerate-tuple"]
    assert seen["coincident-nodes"] and seen["incidence"]
    assert bool(seen["raised"]) == (field is SPLIT)


def test_validation_takes_one_kernel_per_line(monkeypatch):
    # d^(n-1) kernels, one per line of d nodes, and no form evaluation
    counts = {"kernel": 0, "evaluate": 0}

    def counting_kernel(matrix):
        counts["kernel"] += 1
        return kernel_basis(matrix)

    def counting_evaluate(form, point):
        counts["evaluate"] += 1
        return evaluate(form, point)

    evaluate = LinearForm.evaluate
    monkeypatch.setattr(cage_module, "kernel_basis", counting_kernel)
    monkeypatch.setattr(LinearForm, "evaluate", counting_evaluate)
    for n, d in ((2, 3), (3, 4), (4, 2), (2, 1)):
        fresh = Cage(Q, random_cage(7, d, n).groups)
        counts.update(kernel=0, evaluate=0)
        assert fresh.validate().valid
        assert counts == {"kernel": d ** (n - 1), "evaluate": 0}


def test_incidence_test_runs_over_q_only_after_a_failure(monkeypatch):
    # over Q a clean sweep implies incidence; an invalid cage and a cage
    # over Q(sqrt 2) still take the test
    calls = []
    real = cage_module._prove_off_hyperplane
    monkeypatch.setattr(cage_module, "_prove_off_hyperplane",
                        lambda *args: calls.append(args) or real(*args))
    assert Cage(Q, random_cage(7, 3, 2).groups).validate().valid
    assert len(calls) == 0
    twice = Cage(Q, [[LinearForm(Q, [1, -3]), LinearForm(Q, [2, -6])]])
    assert not twice.validate().valid
    assert len(calls) == 1
    t = SQRT2.generator()
    grid = Cage(SQRT2, [[LinearForm(SQRT2, [1, -1]),
                         LinearForm(SQRT2, [1, -t])]])
    assert grid.validate().valid
    assert len(calls) == 2


@pytest.mark.parametrize("field", [Q, SQRT2], ids=["Q", "Q(sqrt 2)"])
def test_validation_on_the_projective_line(field):
    # n = 1: the line is all of P^1, and the form (a, b) has the node (b, -a)
    t = field.generator() if field is SQRT2 else field.from_rational(3)
    cage = Cage(field, [[LinearForm(field, [1, -1]),
                         LinearForm(field, [1, -t]),
                         LinearForm(field, [2, -1])]])
    assert cage.validate() == cage_module.ValidationReport(True, 3, ())
    assert [nd.point for nd in cage.nodes()] == [
        (field.one(), field.one()), (t, field.one()),
        (field.from_rational(Fraction(1, 2)), field.one())]
    twice = Cage(field, [[LinearForm(field, [1, -t]),
                          LinearForm(field, [2, -2 * t])]])
    assert twice.validate().failures == (
        cage_module.ValidationFailure(
            "coincident-nodes", (2,), "node coincides with node (1,)"),
        cage_module.ValidationFailure(
            "incidence", (1,), "color 1 hyperplane 2: vanishing pattern "
            "violated"))


@pytest.mark.parametrize("field", [Q, SQRT2], ids=["Q", "Q(sqrt 2)"])
def test_validation_with_one_form_per_color(field):
    # d = 1: one node and no incidence to test
    t = field.generator() if field is SQRT2 else field.from_rational(3)
    forms = [[1, 0, 0, -1], [0, 1, 0, -t], [1, 1, 1, 0]]
    cage = Cage(field, [[LinearForm(field, f)] for f in forms])
    assert cage.validate() == cage_module.ValidationReport(True, 1, ())
    (node,) = cage.nodes()
    assert node.index == (1, 1, 1)
    assert node.point == canonical_point(
        [field.one(), t, -1 - t, field.one()])


def test_last_form_containing_the_line_is_degenerate():
    # x = y = 0 is a line; x + y contains it, and a form proportional to x
    # leaves a plane for the first two colors to meet in
    cage = Cage(Q, [[line(1, 0, 0, 0), line(2, 0, 0, 0)],
                    [line(0, 1, 0, 0), line(1, 0, 0, 0)],
                    [line(1, 1, 0, 0), line(0, 0, 1, 0)]])
    failures = {f.index: f for f in cage.validate().failures
                if f.kind == "degenerate-tuple"}
    assert failures[(1, 1, 1)].detail == (
        "hyperplane tuple meets in a 2-dimensional solution space, "
        "expected a single point")
    assert (1, 1, 2) not in failures
    assert failures[(1, 2, 1)].detail.startswith(
        "hyperplane tuple meets in a 2-dimensional")
    assert failures[(1, 2, 2)].detail.startswith(
        "hyperplane tuple meets in a 2-dimensional")
    assert failures[(2, 2, 1)].detail.startswith(
        "hyperplane tuple meets in a 2-dimensional")
