"""Exact linear algebra against the naive Fraction oracles."""

import random
from fractions import Fraction

import pytest

try:
    from hypothesis import given, strategies as st
except ImportError:         # the property test skips itself
    given = None

import oracles
from cagekit import demos, linalg
from cagekit import (FieldDescriptor, Matrix, ReducibleModulusError,
                     ShapeError, SubspaceBasis, in_span, invert,
                     kernel_basis, rank, solve, span_equal)


Q = FieldDescriptor.rationals()


def frac_entries(matrix):
    return [[e.as_fraction() for e in row] for row in matrix.entries]


def random_matrix(rng, max_dim=20):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randint(-5, 5) if rng.random() < 0.7 else 0
             for _ in range(cols)] for _ in range(rows)]


# the four nodes of the unit-square 2x2 cage, homogenized
UNIT_SQUARE = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


def unit_square_eval(degree=2):
    return Matrix(Q, oracles.eval_matrix(UNIT_SQUARE, degree))


def test_rank_identity():
    assert rank(Matrix(Q, oracles.identity(3))) == 3


def test_rank_zero_matrix():
    assert rank(Matrix(Q, [[0] * 5, [0] * 5])) == 0


def test_rank_node_evaluation_matrix():
    m = unit_square_eval()
    assert (m.rows, m.cols) == (4, 6)
    assert rank(m) == 4
    assert oracles.rank(frac_entries(m)) == 4


def test_kernel_identity_empty():
    basis = kernel_basis(Matrix(Q, oracles.identity(4)))
    assert basis.dim == 0 and basis.ambient_dim == 4


def test_kernel_one_one():
    basis = kernel_basis(Matrix(Q, [[1, 1]]))
    assert basis.dim == 1
    v = basis.vectors[0]
    assert v[0] == -v[1] and not v[0].is_zero()


def test_kernel_of_node_evaluation_contains_conic_products():
    # x(x-1) and y(y-1) homogenized, in descending-lex degree-2 coordinates
    # monomials: x^2, xy, xz, y^2, yz, z^2
    basis = kernel_basis(unit_square_eval())
    assert basis.dim == 2
    x_conic = [Fraction(1), 0, Fraction(-1), 0, 0, 0]
    y_conic = [0, 0, 0, Fraction(1), Fraction(-1), 0]
    assert in_span(x_conic, basis)
    assert in_span(y_conic, basis)


def test_kernel_matches_oracle_dimension():
    rng = random.Random(5)
    for _ in range(40):
        raw = random_matrix(rng, max_dim=8)
        m = Matrix(Q, raw)
        ours = kernel_basis(m)
        theirs = oracles.kernel(raw)
        assert ours.dim == len(theirs)
        assert rank(m) == oracles.rank(raw)
        for v in theirs:
            assert in_span(v, ours)


def test_kernel_vectors_annihilate():
    rng = random.Random(17)
    for _ in range(25):
        m = Matrix(Q, random_matrix(rng, max_dim=10))
        basis = kernel_basis(m)
        assert basis.dim + rank(m) == m.cols
        for v in basis.vectors:
            assert all(e.is_zero() for e in oracles.matvec(m.entries, v))


def test_kernel_self_check_raises_on_a_wrong_row(monkeypatch):
    # the exact M v = 0 check guards the elimination in both fields, also
    # under python -O
    real = linalg._eliminate

    def wrong(field, rows):
        rows, pivots = real(field, rows)
        rows[0] = [e + 1 for e in rows[0]]
        return rows, pivots

    monkeypatch.setattr(linalg, "_eliminate", wrong)
    sqrt2 = FieldDescriptor.extension([-2, 0, 1])
    for m in (unit_square_eval(), Matrix(sqrt2, [[1, sqrt2.generator()]])):
        with pytest.raises(RuntimeError):
            kernel_basis(m)


def random_rational_matrix(rng, rows, cols, deficiency=0):
    # rank at most min(rows, cols) - deficiency: the last rows are random
    # rational combinations of the others
    free = max(min(rows, cols) - deficiency, 0)
    raw = [[Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            for _ in range(cols)] for _ in range(free)]
    while len(raw) < rows:
        weights = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                   for _ in range(free)]
        raw.append([sum((w * r[j] for w, r in zip(weights, raw)),
                        Fraction(0)) for j in range(cols)])
    rng.shuffle(raw)
    return Matrix(Q, raw)


def exact_pivot_rows(matrix):
    # the modular core's pivot rule (first row, in the current order, that
    # is nonzero in the leading column) run over Q; returns original indices
    live = list(enumerate(frac_entries(matrix)))
    picked = []
    for col in range(matrix.cols):
        hit = next((k for k, (_, r) in enumerate(live) if r[col]), None)
        if hit is None:
            continue
        index, pivot = live.pop(hit)
        live = [(i, [a - r[col] / pivot[col] * b for a, b in zip(r, pivot)])
                for i, r in live]
        picked.append(index)
    return picked


def test_modular_rank_matches_exact_elimination():
    rng = random.Random(53)
    shapes = [(4, 9), (9, 4), (7, 7), (1, 6), (6, 1), (12, 15), (15, 12)]
    for rows, cols in shapes:
        for deficiency in (0, 1, 3):
            for _ in range(4):
                m = random_rational_matrix(rng, rows, cols, deficiency)
                exact = len(linalg._rref(m)[1])
                assert rank(m) == exact
                assert rank(Matrix(Q, oracles.transpose(m.entries))) == exact
                pivots = linalg._pivots_mod(integral_rows(m), linalg.PRIME)
                assert len(pivots) == exact
                assert pivots == exact_pivot_rows(m)
                chosen = [frac_entries(m)[i] for i in pivots]
                assert oracles.rank(chosen) == exact


def test_modular_rank_falls_back_on_the_prime(monkeypatch):
    p = linalg.PRIME
    assert p == 2 ** 24 - 17
    # entries that vanish mod p, or whose denominator p divides
    assert rank(Matrix(Q, [[p]])) == 1
    assert rank(Matrix(Q, [[1, 0], [0, p]])) == 2
    assert rank(Matrix(Q, [[Fraction(1, p)]])) == 1
    assert rank(Matrix(Q, [[p, 2 * p], [1, 2]])) == 1
    assert linalg._pivots_mod([[1, 0], [0, p]], p) == [0]
    # over Q the rows are integers, so a denominator p leaves no residue
    # to decline: the row of 1/p is [1]
    assert linalg._pivots_mod(
        integral_rows(Matrix(Q, [[Fraction(1, p)]])), p) == [0]
    # an extension field reduces at the roots of its modulus mod a split
    # prime, and declines when that prime divides a denominator: the rank
    # then comes from exact elimination
    sqrt2 = FieldDescriptor.extension([-2, 0, 1])
    calls = counted_eliminations(monkeypatch)
    unit_rows = Matrix(sqrt2, oracles.identity(2)).entries
    assert residue_ranks(sqrt2, unit_rows) == [2, 2]
    assert linalg._rank(sqrt2, unit_rows) == 2
    assert not calls
    q, _ = linalg._residue_maps(sqrt2)
    inverse_q = [[sqrt2.element([0, Fraction(1, q)])]]
    assert residue_ranks(sqrt2, inverse_q) is None
    assert linalg._rank(sqrt2, inverse_q) == 1
    assert len(calls) == 1
    # shapes with nothing to eliminate
    assert rank(Matrix(Q, [])) == 0
    assert rank(Matrix(Q, [[], []])) == 0
    assert linalg._pivots_mod([], p) == []


def residue_ranks(field, rows):
    # the rank mod p of the rows' residues at each residue map of an
    # extension field, as linalg._rank eliminates them; None when p divides
    # a denominator
    p, roots = linalg._residue_maps(field)
    try:
        return [len(linalg._pivots_mod(
            [[sum(c * r for c, r in zip(linalg._mod_p(e, p), powers)) % p
              for e in row] for row in rows], p)) for powers in roots]
    except ValueError:
        return None


def counted_eliminations(monkeypatch):
    # the rows of every exact elimination linalg._rank falls back to
    calls = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda field, rows: calls.append(rows)
                        or real(field, rows))
    return calls


PACKED_PRIMES = (2, 3, 7, 65521, linalg.PRIME)


def low_rank_ints(rng, rows, cols, rank_, bound):
    # a product of random rows x rank_ and rank_ x cols integer matrices
    left = [[rng.randint(-bound, bound) for _ in range(rank_)]
            for _ in range(rows)]
    right = [[rng.randint(-bound, bound) for _ in range(cols)]
             for _ in range(rank_)]
    return [[sum(a * b[j] for a, b in zip(r, right)) for j in range(cols)]
            for r in left]


def slot_growth_rows(p, pivots, cols, copies):
    # row i < pivots is U_0 + ... + U_i mod p, with U_m = 1 at column m and
    # p - 1 after it, so at every step the leading residue of each live row
    # equals the pivot's (f = 1) and the pivot's reduced tail is all p - 1:
    # each update adds (p - 1)^2 to every slot of the tail.  The copies of
    # the last row take all pivots updates and are zero mod p at the end, so
    # a carry across a slot would show as a pivot among them.
    units = [[0] * m + [1] + [p - 1] * (cols - m - 1) for m in range(pivots)]
    rows = [[sum(u[j] for u in units[:i + 1]) % p for j in range(cols)]
            for i in range(pivots)]
    return rows + [list(rows[-1]) for _ in range(copies)]


def test_packed_pivots_match_the_list_kernel():
    # the packed kernel against the list kernel it replaced, pivot list for
    # pivot list: negative entries, entries far above p and multiples of p,
    # zero rows and zero columns
    rng = random.Random(61)
    for p in PACKED_PRIMES:
        for _ in range(60):
            rows, cols = rng.randint(1, 16), rng.randint(1, 16)
            m = low_rank_ints(rng, rows, cols,
                              rng.randint(0, min(rows, cols)),
                              rng.choice((1, 9, 10 ** 12)))
            if rng.random() < 0.3:
                m = [[p * x for x in row] if rng.random() < 0.3 else row
                     for row in m]
            if rng.random() < 0.3:
                dead = rng.randrange(cols)
                m = [[0 if j == dead else x for j, x in enumerate(row)]
                     for row in m]
            if rng.random() < 0.3:
                m[rng.randrange(rows)] = [0] * cols
            assert linalg._pivots_mod(m, p) == oracles.pivots_mod(m, p)


def test_packed_pivots_on_degenerate_shapes():
    for p in PACKED_PRIMES:
        assert linalg._pivots_mod([], p) == oracles.pivots_mod([], p) == []
        assert linalg._pivots_mod([[], []], p) == []
        assert linalg._pivots_mod([[0, 0, 0]] * 3, p) == []
        assert linalg._pivots_mod([[0, p, -p, 0, 1]], p) == [0]
        assert linalg._pivots_mod([[0, 0], [0, 3 * p + 1], [5, 0]], p) \
            == [2, 1]
        assert linalg._pivots_mod([[-1], [1]], p) == [0]


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_pivots_survive_worst_case_slot_growth(p):
    shapes = [(40, 3), (3, 40), (25, 25)]        # tall, wide, square
    for rows, cols in shapes:
        full = [[p - 1] * cols for _ in range(rows)]
        assert linalg._pivots_mod(full, p) == oracles.pivots_mod(full, p) \
            == [0]
    for pivots, cols, copies in ((30, 34, 10), (5, 40, 35), (12, 12, 0)):
        m = slot_growth_rows(p, pivots, cols, copies)
        expected = list(range(pivots))
        assert oracles.pivots_mod(m, p) == expected
        assert linalg._pivots_mod(m, p) == expected


def test_packed_pivots_beyond_the_word_bound():
    # 2 bitlen(p) + bitlen(min(rows, cols) + 1) must stay within 64 bits:
    # at p = 2^31 - 1 a 2x2 matrix fits exactly and a 3x3 one does not
    p = 2 ** 31 - 1
    assert linalg._pivots_mod([[1, 2], [3, 4]], p) == [0, 1]
    with pytest.raises(ValueError, match="64"):
        linalg._pivots_mod([[1, 2, 3], [4, 5, 6], [7, 8, 10]], p)


def test_packed_pivots_survive_slot_growth_at_the_word_bound():
    # 2 bitlen(p) + bitlen(15) = 64, so 14 pivots are the most the bound
    # admits at this p; every slot of the copies grows by (p - 1)^2 at each
    # pivot whose tail reaches it
    p = 2 ** 30 - 35
    m = slot_growth_rows(p, 14, 14, 10)
    assert linalg._pivots_mod(m, p) == oracles.pivots_mod(m, p) \
        == list(range(14))


def test_rank_beyond_the_word_bound_takes_the_exact_path(monkeypatch):
    # past the bound _pivots_mod declines and rank eliminates exactly
    monkeypatch.setattr(linalg, "PRIME", 2 ** 31 - 1)
    m = Matrix(Q, [[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    exact = len(linalg._rref(m)[1])
    calls = counted_eliminations(monkeypatch)
    assert rank(m) == exact == 3
    assert len(calls) == 1


SPLIT_FIELDS = {
    "Q(sqrt2)": FieldDescriptor.extension([-2, 0, 1]),
    "Q(i)": FieldDescriptor.extension([1, 0, 1]),
    "Q(theta,i)": demos.quartic_roots_field()[0],
    "Q(omega,cbrt3)": demos.cubic_roots_field()[0],
}


def random_field_matrix(rng, field, rows, cols, deficiency=0):
    # the last rows are combinations of the others with weights in the
    # field, so the rank drops over the field but not coefficientwise
    def element():
        return field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                              if rng.random() < 0.8 else 0
                              for _ in range(field.degree)])

    free = min(rows, cols) - deficiency
    raw = [[element() for _ in range(cols)] for _ in range(free)]
    while len(raw) < rows:
        weights = [element() for _ in range(free)]
        raw.append([sum((w * r[j] for w, r in zip(weights, raw)),
                        field.zero()) for j in range(cols)])
    rng.shuffle(raw)
    return Matrix(field, raw)


@pytest.mark.parametrize("name", sorted(SPLIT_FIELDS))
def test_split_prime_rank_matches_exact_elimination(name):
    field = SPLIT_FIELDS[name]
    p, roots = linalg._residue_maps(field)
    assert len(roots) == field.degree and p <= linalg.PRIME
    rng = random.Random(name)
    for rows, cols, deficiency in ((3, 4, 0), (4, 3, 0), (4, 4, 0),
                                   (4, 4, 1), (3, 5, 2), (5, 3, 1)):
        m = random_field_matrix(rng, field, rows, cols, deficiency)
        exact = len(linalg._rref(m)[1])
        assert exact == min(rows, cols) - deficiency
        ranks = residue_ranks(field, m.entries)
        # a lower bound at every root, and the certificate when full
        assert max(ranks) <= exact
        assert min(ranks) == exact or deficiency
        assert rank(m) == exact


def test_trial_division_matches_a_sieve():
    # on 0..20000, and on the window the split-prime scan walks down from
    # PRIME through its SPLIT_SCAN-th prime
    assert ([n for n in range(20001) if linalg._is_prime(n)]
            == oracles.primes_between(0, 20000))
    scanned = oracles.primes_between(linalg.PRIME - 8000,
                                     linalg.PRIME)[-linalg.SPLIT_SCAN:]
    assert len(scanned) == linalg.SPLIT_SCAN and scanned[-1] == linalg.PRIME
    assert ([n for n in range(scanned[0], linalg.PRIME + 1)
             if linalg._is_prime(n)] == scanned)


@pytest.mark.parametrize("name, prime, count", [
    ("Q(theta,i)", 16776961, 8), ("Q(omega,cbrt3)", 16777027, 6),
    ("Q(sqrt2)", 16777199, 2)])
def test_split_prime_of_each_demo_modulus(name, prime, count):
    # the demo fields' primes and roots; each root is a distinct zero of
    # the modulus mod p, returned with its powers
    min_poly = SPLIT_FIELDS[name].min_poly
    p, roots = linalg._split_prime(min_poly)
    assert (p, len(roots)) == (prime, count)
    assert len({powers[1] for powers in roots}) == count
    for powers in roots:
        r = powers[1]
        assert list(powers) == [pow(r, k, p) for k in range(len(powers))]
        assert sum(c.numerator * pow(c.denominator, -1, p) * pow(r, k, p)
                   for k, c in enumerate(min_poly)) % p == 0


def test_rank_drop_at_one_root_takes_the_exact_path(monkeypatch):
    field = SPLIT_FIELDS["Q(theta,i)"]
    p, roots = linalg._residue_maps(field)
    # t - r vanishes at the root r mod p and nowhere else, and is a unit
    r = roots[0][1]
    unit = field.generator() - r
    assert residue_ranks(field, [[unit]]) == [0] + [1] * (len(roots) - 1)
    calls = counted_eliminations(monkeypatch)
    assert rank(Matrix(field, [[unit]])) == 1
    assert len(calls) == 1


def test_reducible_modulus_rank_is_certified_only_in_every_factor():
    # Q[t]/(t^2 - 1) is Q x Q, with the roots t = 1 and t = -1
    split = FieldDescriptor.extension([-1, 0, 1])
    t = split.generator()
    # t - 1 is zero in the first factor: the exact path meets the zero
    # divisor and the reducibility surfaces
    with pytest.raises(ReducibleModulusError):
        rank(Matrix(split, [[t - 1]]))
    # full rank in both factors is the rank, though elimination over the
    # ring would invert t - 1 first
    both = Matrix(split, [[t - 1, t + 1]])
    assert residue_ranks(split, both.entries) == [1, 1]
    assert rank(both) == 1
    with pytest.raises(ReducibleModulusError):
        linalg._rref(both)


def test_exhausted_prime_scan_takes_the_exact_path(monkeypatch):
    # x^2 + 1 has no root mod 2^24 - 17, which is 3 mod 4
    monkeypatch.setattr(linalg, "SPLIT_SCAN", 1)
    monkeypatch.setattr(linalg, "_SPLITS", {})
    gauss = FieldDescriptor.extension([1, 0, 1])
    assert linalg._residue_maps(gauss) == (linalg.PRIME, ())
    m = Matrix(gauss, oracles.identity(3))
    assert residue_ranks(gauss, m.entries) == []
    calls = counted_eliminations(monkeypatch)
    assert rank(m) == 3
    assert len(calls) == 1


# -- the integer core against the field-generic elimination -----------------


def field_rref(matrix):
    # the elimination linalg runs over Q[t]/(m), here on a Q matrix
    return linalg._gauss_jordan([list(r) for r in matrix.entries])


def field_kernel(matrix):
    rows, pivots = field_rref(matrix)
    basis = []
    for f in range(matrix.cols):
        if f not in pivots:
            vec = [Q.zero()] * matrix.cols
            vec[f] = Q.one()
            for row, pc in zip(rows, pivots):
                vec[pc] = -row[f]
            basis.append(tuple(vec))
    return tuple(basis)


def field_solve(matrix, rhs):
    rows, pivots = field_rref(
        Matrix(Q, [list(r) + [b] for r, b in zip(matrix.entries, rhs)]))
    if pivots and pivots[-1] == matrix.cols:
        return None
    solution = [Q.zero()] * matrix.cols
    for row, pc in zip(rows, pivots):
        solution[pc] = row[matrix.cols]
    return tuple(solution)


def field_invert(matrix):
    n = matrix.rows
    rows, pivots = field_rref(Matrix(Q, [
        list(r) + [int(i == j) for j in range(n)]
        for i, r in enumerate(matrix.entries)]))
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return Matrix(Q, [row[n:] for row in rows])


def integer_rref(matrix):
    # the integer core's rows divided by D, as Fractions
    rows, pivots = linalg._rref(matrix)
    lead = linalg._lead(rows, pivots)
    return [[Fraction(x, lead) for x in row] for row in rows], pivots


def with_zero_lines(rng, matrix):
    # one zero row and one zero column at random positions
    raw = [list(r) for r in frac_entries(matrix)]
    col = rng.randint(0, matrix.cols)
    raw = [r[:col] + [0] + r[col:] for r in raw]
    raw.insert(rng.randint(0, len(raw)), [0] * (matrix.cols + 1))
    return Matrix(Q, raw)


def cross_check_cases():
    rng = random.Random(71)
    shapes = [(1, 6), (4, 9), (6, 11), (9, 4), (11, 6), (7, 7), (8, 8)]
    for rows, cols in shapes:
        for deficiency in (0, 1, 3):
            for _ in range(3):
                m = random_rational_matrix(rng, rows, cols, deficiency)
                yield rng, m
                yield rng, with_zero_lines(rng, m)


def assert_matches_field_elimination(rng, m):
    # returns the numbers of inconsistent systems and singular inverses met
    inconsistent = singular = 0
    rows, pivots = field_rref(m)
    assert integer_rref(m) == (
        [[e.as_fraction() for e in row] for row in rows], pivots)
    assert rank(m) == len(pivots)
    assert kernel_basis(m).vectors == field_kernel(m)
    x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
         for _ in range(m.cols)]
    consistent = [sum((a * b for a, b in zip(row, x)), Fraction(0))
                  for row in frac_entries(m)]
    assert solve(m, consistent) == field_solve(m, consistent)
    assert solve(m, consistent) is not None
    columns = SubspaceBasis(m.rows, tuple(zip(*m.entries)))
    assert in_span(consistent, columns)
    for _ in range(2):
        rhs = [rng.randint(-9, 9) for _ in range(m.rows)]
        expected = field_solve(m, rhs)
        assert solve(m, rhs) == expected
        assert in_span(rhs, columns) == (expected is not None)
        inconsistent += expected is None
    if m.rows == m.cols:
        try:
            expected = field_invert(m)
        except ValueError:
            with pytest.raises(ValueError):
                invert(m)
            singular += 1
        else:
            assert invert(m) == expected
    return inconsistent, singular


def test_integer_core_matches_field_elimination():
    met = [assert_matches_field_elimination(rng, m)
           for rng, m in cross_check_cases()]
    assert all(sum(counts) for counts in zip(*met))


def test_integer_core_pivot_entry_is_the_determinant():
    # on an integer matrix D is a minor of it: for a square nonsingular
    # one, the determinant up to the sign of the row swaps
    rng = random.Random(83)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            raw = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            det = oracles.det(raw)
            rows, pivots = linalg._rref(Matrix(Q, raw))
            if det:
                assert abs(linalg._lead(rows, pivots)) == abs(det)
            else:
                assert len(pivots) < n


def test_q_takes_only_the_integer_core(monkeypatch):
    def forbidden(rows):
        raise AssertionError("Q must not reach the field elimination")

    monkeypatch.setattr(linalg, "_gauss_jordan", forbidden)
    m = Matrix(Q, [[1, Fraction(1, 2), 0], [2, 1, Fraction(-1, 3)]])
    assert rank(m) == 2 and kernel_basis(m).dim == 1
    assert solve(m, [1, 1]) is not None
    assert invert(Matrix(Q, [[0, 2], [Fraction(1, 3), 1]])) == Matrix(
        Q, [[Fraction(-3, 2), 3], [Fraction(1, 2), 0]])


def test_integer_entry_points_match_the_oracles(monkeypatch):
    # rank and kernel of integer rows, entries divisible by p included;
    # over Q, rank no longer reduces field elements through residue maps
    def forbidden(*args):
        raise AssertionError("Q must not reach the residue maps")

    monkeypatch.setattr(linalg, "_residue_maps", forbidden)
    monkeypatch.setattr(linalg, "_mod_p", forbidden)
    p = linalg.PRIME
    rng = random.Random(59)
    for rows, cols, deficiency in ((3, 5, 0), (5, 3, 1), (4, 4, 2),
                                   (1, 3, 0), (6, 6, 3)):
        raw = [[x * p ** rng.randint(0, 1) for x in r]
               for r in integral_rows(random_rational_matrix(
                   rng, rows, cols, deficiency))]
        # and a row scaled by p, which keeps the deficiency
        raw[0] = [x * p for x in raw[0]]
        frac = [[Fraction(x) for x in r] for r in raw]
        assert linalg._rank(Q, raw) == oracles.rank(frac) \
            == rank(Matrix(Q, frac))
        kernel = linalg._exact_kernel(Q, raw, cols)
        assert all(x == int(x) for v in kernel for x in v)
        assert [[Fraction(x, v[f]) for x in v] for v, f in zip(
            kernel, free_columns(kernel))] == oracles.kernel(frac)
    assert rank(Matrix(Q, [[Fraction(1, p), 1], [1, p]])) == 1
    assert linalg._rank(Q, []) == 0
    assert linalg._exact_kernel(Q, [], 2) == [[1, 0], [0, 1]]


def integral_rows(matrix):
    return list(linalg._scaled_rows(matrix))


# -- the checked kernel modulo 2^89 - 1 --------------------------------------

M89 = 2 ** 89 - 1


def span(vectors):
    # the canonical basis of the span: the nonzero rows of the RREF
    if not vectors:
        return []
    rows, pivots = oracles.rref(vectors)
    return rows[:len(pivots)]


def planted_rows(rng, rows, cols, rank):
    # the last rows - rank rows are integer combinations of the others
    base = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rank)]
    out = base + [[sum(w * r[j] for w, r in zip(weights, base))
                   for j in range(cols)]
                  for weights in ([rng.randint(-3, 3) for _ in base]
                                  for _ in range(rows - rank))]
    rng.shuffle(out)
    return out


def modular_kernel(rows, cols):
    return linalg._kernel_mod(rows, linalg._pivots_mod(rows, linalg.PRIME),
                              cols)


def test_modular_kernel_spans_the_integer_kernel():
    rng = random.Random(97)
    for rows, cols, rank_ in ((3, 5, 3), (5, 3, 2), (4, 4, 2), (6, 6, 3),
                              (8, 10, 5), (12, 9, 5), (1, 3, 1), (2, 2, 0)):
        for _ in range(5):
            raw = planted_rows(rng, rows, cols, rank_)
            kernel = modular_kernel(raw, cols)
            exact = linalg._exact_kernel(Q, raw, cols)
            assert kernel is not None and len(kernel) == len(exact)
            assert span(kernel) == span(exact)


def test_modular_kernel_declines_rows_dependent_mod_its_modulus():
    # independent over Q and mod PRIME, equal mod 2^89 - 1
    rows = [[1, 0, 0], [1, M89, 0]]
    assert linalg._pivots_mod(rows, linalg.PRIME) == [0, 1]
    assert linalg._kernel_mod(rows, [0, 1], 3) is None
    assert span(linalg._exact_kernel(Q, rows, 3)) == [[0, 0, 1]]


def free_columns(kernel):
    # a canonical kernel vector is zero past its free column
    return [max(i for i, x in enumerate(v) if x) for v in kernel]


if given is not None:
    ENTRY = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-20, max_value=20,
                                   max_denominator=6))

    @given(st.integers(1, 6).flatmap(lambda cols: st.lists(
        st.lists(ENTRY, min_size=cols, max_size=cols),
        min_size=1, max_size=6)))
    def test_integer_core_property(raw):
        m = Matrix(Q, raw)
        rref, pivots = oracles.rref(raw)
        assert integer_rref(m) == (rref[:len(pivots)], pivots)
        assert [list(v) for v in kernel_basis(m).vectors] == \
            oracles.kernel(raw)

    INTEGER = st.one_of(st.integers(-20, 20),
                        st.integers(-2, 2).map(lambda x: x * linalg.PRIME))

    @given(st.integers(1, 7).flatmap(lambda cols: st.lists(
        st.lists(INTEGER, min_size=cols, max_size=cols),
        min_size=1, max_size=7)))
    def test_modular_kernel_property(raw):
        # when it answers, the span of the exact integer kernel; entries
        # divisible by PRIME can hide a pivot, and then it must decline
        kernel = modular_kernel(raw, len(raw[0]))
        exact = linalg._exact_kernel(Q, raw, len(raw[0]))
        if kernel is not None:
            assert len(kernel) == len(exact)
            assert span(kernel) == span(exact)
else:
    @pytest.mark.skip(reason="needs hypothesis")
    def test_integer_core_property():
        pass

    @pytest.mark.skip(reason="needs hypothesis")
    def test_modular_kernel_property():
        pass


def test_integer_core_self_check_raises_on_a_wrong_row(monkeypatch):
    # M v = 0 is checked on ints against the scaled rows
    real = linalg._fraction_free

    def wrong(rows):
        rows, pivots = real(rows)
        rows[0] = [e + 1 for e in rows[0]]
        return rows, pivots

    monkeypatch.setattr(linalg, "_fraction_free", wrong)
    with pytest.raises(RuntimeError, match="kernel vector check failed"):
        kernel_basis(unit_square_eval())


def test_in_span_zero_vector():
    basis = SubspaceBasis(2, ((Q.one(), Q.zero()),))
    assert in_span([0, 0], basis)


def test_in_span_negative():
    basis = SubspaceBasis(2, ((Q.zero(), Q.one()),))
    assert not in_span([1, 0], basis)


def test_in_span_scaling():
    basis = SubspaceBasis(2, ((Q.one(), Q.from_rational(-1)),))
    assert in_span([2, -2], basis)


def test_in_span_shape_error():
    basis = SubspaceBasis(2, ((Q.one(), Q.zero()),))
    with pytest.raises(ShapeError):
        in_span([1, 0, 0], basis)


def test_solve_identity():
    sol = solve(Matrix(Q, oracles.identity(3)), [3, -1, 7])
    assert [e.as_fraction() for e in sol] == [3, -1, 7]


def test_solve_two_by_two():
    sol = solve(Matrix(Q, [[1, 1], [1, -1]]), [2, 0])
    assert [e.as_fraction() for e in sol] == [1, 1]


def test_solve_inconsistent_returns_none():
    assert solve(Matrix(Q, [[1, 1], [1, 1]]), [0, 1]) is None


@pytest.mark.parametrize("field", [Q, SPLIT_FIELDS["Q(sqrt2)"]],
                         ids=["Q", "Q(sqrt2)"])
def test_solve_without_rows_returns_the_empty_solution(field):
    # a matrix with no rows has no columns, so its one solution is ()
    assert solve(Matrix(field, []), []) == ()


def test_solve_shape_error():
    with pytest.raises(ShapeError):
        solve(Matrix(Q, [[1, 1]]), [1, 2])


def test_invert_roundtrip():
    rng = random.Random(29)
    found = 0
    while found < 10:
        raw = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        if oracles.det(raw) == 0:
            continue
        inv = frac_entries(invert(Matrix(Q, raw)))
        product = [[sum(Fraction(a) * b for a, b in zip(row, col))
                    for col in zip(*inv)] for row in raw]
        assert product == [[int(i == j) for j in range(4)] for i in range(4)]
        found += 1


def test_invert_singular():
    with pytest.raises(ValueError):
        invert(Matrix(Q, [[1, 2], [2, 4]]))
    with pytest.raises(ShapeError):
        invert(Matrix(Q, [[1, 2]]))


def test_rank_transpose_200_random():
    rng = random.Random(41)
    for _ in range(200):
        m = Matrix(Q, random_matrix(rng))
        assert rank(m) == rank(Matrix(Q, oracles.transpose(m.entries)))


def test_span_equal():
    a = SubspaceBasis(3, ((Q.one(), Q.zero(), Q.zero()),
                          (Q.zero(), Q.one(), Q.zero())))
    scaled = SubspaceBasis(3, ((Q.from_rational(2), Q.from_rational(3),
                                Q.zero()),
                               (Q.one(), Q.from_rational(-1), Q.zero())))
    other = SubspaceBasis(3, ((Q.one(), Q.zero(), Q.one()),
                              (Q.zero(), Q.one(), Q.zero())))
    assert span_equal(a, scaled)
    assert not span_equal(a, other)


SQRT2 = FieldDescriptor.extension([-2, 0, 1], label="Q(sqrt2)")


def restricted(field, vectors):
    # the span over the field of the vectors is the span over Q of t^k
    # times each, k below the degree, written coefficient by coefficient
    modulus = field.min_poly or [0, 1]     # Q as Q[t]/(t)
    return [[c for e in v for c in oracles.poly_mod_mul(
                e.coeffs, [0] * k + [1], modulus)]
            for v in vectors for k in range(field.degree)]


def oracle_in_span(field, vector, vectors):
    rows = restricted(field, vectors)
    return (oracles.rank(rows + restricted(field, [vector]))
            == oracles.rank(rows))


def oracle_span_equal(field, a, b):
    ra, rb = restricted(field, a), restricted(field, b)
    return (len(a) == len(b)
            and oracles.rank(ra) == oracles.rank(rb) == oracles.rank(ra + rb))


@pytest.mark.parametrize("field", [Q, SQRT2], ids=["Q", "Q(sqrt2)"])
def test_span_membership_matches_restricted_oracle(monkeypatch, field):
    # in_span and span_equal compare ranks: dependent lists and empty
    # bases included, they agree with plain Fraction ranks over Q and
    # neither solves a system nor builds a kernel
    def forbidden(*args, **kwargs):
        raise AssertionError("span questions take ranks only")
    for name in ("solve", "kernel_basis", "invert"):
        monkeypatch.setattr(linalg, name, forbidden)
    rng = random.Random(61)

    def element():
        return field.element([rng.choice((0, 0, 1, -1, 2, Fraction(1, 3)))
                              for _ in range(field.degree)])

    def combination(vectors, dim):
        acc = [field.zero()] * dim
        for v in vectors:
            s = element()
            acc = [a + s * x for a, x in zip(acc, v)]
        return tuple(acc)

    seen = {"member": 0, "outside": 0, "equal": 0, "unequal": 0}
    for _ in range(80):
        dim = rng.randint(1, 4)
        vectors = [tuple(element() for _ in range(dim))
                   for _ in range(rng.randint(0, 3))]
        if len(vectors) >= 2 and rng.random() < 0.5:
            vectors.append(combination(vectors[:2], dim))   # dependent
        a = SubspaceBasis(dim, tuple(vectors))
        for vector in (tuple(element() for _ in range(dim)),
                       combination(vectors, dim)):
            expected = oracle_in_span(field, vector, vectors)
            assert in_span(vector, a) == expected
            seen["member" if expected else "outside"] += 1
        others = [combination(vectors, dim) for _ in vectors]
        if rng.random() < 0.3:
            others = [tuple(element() for _ in range(dim)) for _ in vectors]
        elif rng.random() < 0.2:
            others.append(combination(vectors, dim))    # one more vector
        b = SubspaceBasis(dim, tuple(others))
        expected = oracle_span_equal(field, vectors, others)
        assert span_equal(a, b) == span_equal(b, a) == expected
        seen["equal" if expected else "unequal"] += 1
    assert min(seen.values()) >= 5, seen
    assert in_span([0, 0], SubspaceBasis(2, ()))
    assert not in_span([field.zero(), field.one()], SubspaceBasis(2, ()))
    assert span_equal(SubspaceBasis(2, ()), SubspaceBasis(2, ()))


def test_extension_field_rank():
    sqrt2 = FieldDescriptor.extension([-2, 0, 1], label="Q(sqrt2)")
    t = sqrt2.generator()
    # second row is t times the first, so the rank drops
    m = Matrix(sqrt2, [[sqrt2.one(), t], [t, sqrt2.from_rational(2)]])
    assert rank(m) == 1
    assert kernel_basis(m).dim == 1


def test_ragged_rows_rejected():
    with pytest.raises(ShapeError):
        Matrix(Q, [[1, 2], [3]])
