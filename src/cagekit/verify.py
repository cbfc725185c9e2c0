"""Exact verification of interpolation, rigidity, slicing and smoothness.

The Hilbert functions of arbitrary point lists are ranks of evaluation
matrices: rows are points, columns are the degree-k monomials, and
hilbert_table eliminates.  The ranks the interpolation, minimality and
rigidity checks rest on are proved from validation alone, by the Lemma in
verify_supra_interpolation's docstring, and none is computed.  So is slice
additivity, by that Lemma and the complete-intersection count in
fubini_slice_check's docstring.  The Hilbert tables of the whole node set
and of the simplicial and supra nodes are counts, _lemma_counts, proved the
same way.  The count of a whole grid is also h of the whole point set in
the Cayley-Bacharach checks, which rank only the two parts of their
partition.  Results come
back as structured reports whose every numeric claim (ranks, dimensions,
cardinalities) can be recomputed from the cage alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterator, Optional, Sequence

from .cage import (Cage, Node, NodeSelection, _point_key,
                   _prove_off_hyperplane, all_indices, axis_cage,
                   canonical_point, simplicial_indices,
                   supra_simplicial_indices)
from .errors import ShapeError
from .field import FieldDescriptor, FieldElement
from .inscribe import LambdaMatrix
from .linalg import (Matrix, SubspaceBasis, _exact_kernel, _images,
                     _kernel_mod, _pivots_mod, _prepared, dot, kernel_basis,
                     rank)
from .poly import (HomogPoly, LinearForm, monomial_basis,
                   product_of_linear_forms)


# -- report plumbing ---------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: dict
    witness: Optional[HomogPoly] = None


@dataclass(frozen=True)
class VerificationReport:
    subject: dict
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# -- evaluation matrices and Hilbert functions -------------------------------

@dataclass(frozen=True)
class EvalMatrix:
    """Evaluation of all monomials of one degree at a fixed point list."""

    matrix: Matrix


def _point_tuples(points) -> list[tuple[FieldElement, ...]]:
    out = []
    for p in points:
        pt = p.point if isinstance(p, Node) else tuple(p)
        out.append(pt)
    return out


def _infer_field(pts, field) -> FieldDescriptor:
    if field is not None:
        return field
    for pt in pts:
        for c in pt:
            if isinstance(c, FieldElement):
                return c.field
    raise ValueError("pass field= when points carry no field elements")


def evaluation_matrix(points, degree: int,
                      field: FieldDescriptor = None) -> EvalMatrix:
    """Rows indexed by points, columns by monomial_basis(degree, arity):
    the rows _evaluation_rows gives, no row for no point.

    The field is read off the points themselves; the keyword exists for
    point lists given as plain rationals.
    """
    pts = _point_tuples(points)
    field = _infer_field(pts, field)
    if any(len(p) != len(pts[0]) for p in pts):
        raise ShapeError("points have inconsistent arity")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return EvalMatrix(Matrix(field, _evaluation_rows(pts, degree)
                             if pts else []))


def _evaluation_rows(points, degree: int, one=1) -> list[list]:
    """The degree-k rows of _degree_rows: products of the coordinates, so
    field elements for points of field elements, and for residues of
    points products congruent mod p to the residues of the values.  By the
    scaling argument in the linalg docstring, the row of a primitive
    integer point is a nonzero rational multiple of the point's row, with
    the same rank and kernel."""
    return next(islice(_degree_rows(points, one), degree, None))


def _degree_rows(points, one=1) -> Iterator[list[list]]:
    """The evaluation rows of the points in degrees 0, 1, 2, ..., in the
    order of monomial_basis.  A degree-k monomial m is x_v times m - e_v,
    for the first variable x_v of m with a positive exponent, so each value
    is one coordinate times a degree-(k-1) value, starting from one: the
    int 1, or the field's one where the degree-0 rows must be elements."""
    nv = len(points[0])
    rows, k = [[one] for _ in points], 0
    while True:
        yield rows
        k += 1
        previous = {m: j for j, m in enumerate(monomial_basis(k - 1, nv))}
        steps = []
        for m in monomial_basis(k, nv):
            v = next(i for i, e in enumerate(m) if e)
            steps.append((v, previous[m[:v] + (m[v] - 1,) + m[v + 1:]]))
        rows = [[pt[v] * row[j] for v, j in steps]
                for pt, row in zip(points, rows)]


def _evaluation_rank(points, degree: int, field: FieldDescriptor) -> int:
    """Rank of the degree-k evaluation matrix of a point list, 0 when it is
    empty, given as _distinct_points or Cage._key_table gives it: over Q
    primitive integer vectors.  That is _degree_rank of the
    _evaluation_rows of the linalg._images of the points."""
    if not points:
        return 0
    p, images = _images(field, points)
    return _degree_rank(field, points, degree, p, [
        _evaluation_rows(image, degree) for image in images])[0]


def _distinct_points(points, field: Optional[FieldDescriptor]):
    """The points as the rank path takes them, and their field: the
    cage._point_key of each, over Q the primitive integer vector, over
    Q[t]/(m) the canonical_point.  Duplicates, projectively equal
    representatives included, raise ValueError, and points of differing
    arity raise ShapeError."""
    raw = _point_tuples(points)
    if any(len(p) != len(raw[0]) for p in raw):
        raise ShapeError("points have inconsistent arity")
    if not raw:
        return [], field
    field = _infer_field(raw, field)
    pts = [_point_key(field, _prepared(
        field, [field.coerce(c) for c in p])[1]) for p in raw]
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points in Hilbert function input")
    return pts, field


def _separating_form(field: FieldDescriptor, points: Sequence[tuple]):
    """A linear form vanishing at none of the points, given as
    _distinct_points gives them.

    Tries coefficient vectors (1, t, t^2, ...) for t = 0, 1, 2, ...; each
    point rules out at most arity-1 values of t, so the scan terminates
    within (arity-1) * len(points) + 1 steps.  Over Q the test is an
    integer dot product, and only the form returned is built.
    """
    nv = len(points[0])
    bound = (nv - 1) * len(points) + 1
    for t in range(bound):
        coeffs = [t ** i for i in range(nv)]
        if all(dot(coeffs, p) for p in points):
            return LinearForm(field, coeffs)
    raise RuntimeError("separating form scan exhausted its provable bound")


def hilbert_table(points, k_max: int,
                  field: FieldDescriptor = None) -> tuple[int, ...]:
    """Hilbert function values h(0..k_max) of a finite reduced point set.

    Over Q every point enters once, as its primitive integer vector: gcd 1
    and last nonzero entry positive, the unique representative of its
    projective point, so duplicates are equal vectors.  Scaling a point by
    lambda != 0 multiplies its row of degree-k monomial values by
    lambda^k, which changes neither the rank nor the kernel of an
    evaluation matrix, so every matrix below is one of ints and no
    denominator is left for p to divide.

    Each degree k is certified until the value reaches the point count.
    Write E_k for the degree-k evaluation matrix, with C(k+n, n) columns,
    and I_k for its kernel: the degree-k forms that vanish on the points.
    The table carries from one degree to the next the images, at every
    residue map of linalg._images, of exact members g of I_{k-1}, and
    forms K_k, whose rows are the coefficient vectors of x_v * g for every
    such g and every variable x_v.  Each such product vanishes on the
    points, so the rows of K_k lie in I_k, and the image of x_v * g is the
    same shift of the image of g, so no field element is multiplied.  Over
    Q, with ranks mod p = linalg.PRIME as in linalg.rank,

        rank_p(E_k) <= rank_Q(E_k) = cols - dim I_k <= cols - rank_p(K_k).

    Over Q[t]/(m) the same holds at each root of m mod the split prime p,
    with the rank and I_k taken in the factor of Q[t]/(m) that owns the
    root, as the linalg module docstring argues: a minor nonzero at the
    root is nonzero in that factor.  So when both bounds give r at every
    root, the rank is r in every factor.

    A rank mod p equal to min(rows, cols) at every map needs no upper
    bound, as in linalg.rank; at full column rank I_k = 0.  Otherwise, when
    the two bounds meet at every map, the rank is proved.  The rows of K_k
    that are pivots at the first map are exact members of I_k, carried to
    the next degree; over Q they are independent and there are dim I_k of
    them, a basis of I_k.  When the bounds differ (I_{k-1} = 0 included),
    the degree takes a kernel.  Over Q linalg._kernel_mod builds cols - r
    integer vectors from the r pivot rows of E_k mod p, modulo 2^89 - 1,
    and keeps them only if each vanishes on every row of E_k in exact
    integer arithmetic.  They are independent members of I_k, so
    dim I_k >= cols - r, the upper bound that meets the lower one, and they
    are a basis of I_k.  When it declines, and over Q[t]/(m) always,
    linalg._exact_kernel of E_k gives the rank and a basis of I_k, whose
    images are carried unless p divides a denominator of the basis.

    From the point count on the value stays put: scaling the degree-k0
    columns by powers of a linear form that vanishes at no point embeds the
    stabilized evaluation matrix into every higher degree, so the rank
    cannot drop, and it cannot exceed the point count.  The separating form
    is constructed explicitly, which makes the shortcut a certificate rather
    than an assumption.
    """
    if k_max < 0:
        raise ValueError("degree must be nonnegative")
    pts, field = _distinct_points(points, field)
    if not pts:
        return (0,) * (k_max + 1)
    count = len(pts)
    values = []
    ideal = None        # images of members of I_{k-1} at every map
    # the degrees that take a rank, 0, 1, 2, ..., take the next rows at
    # every map
    p, images = _images(field, pts)
    degree_rows = [_degree_rows(image) for image in images]
    for k in range(k_max + 1):
        if values and values[-1] == count:
            values.append(count)
            continue
        r, ideal = _degree_rank(field, pts, k, p,
                                [next(rows) for rows in degree_rows], ideal)
        values.append(r)
        if r == count:
            _separating_form(field, pts)
    return tuple(values)


def _degree_rank(field: FieldDescriptor, points, k: int, p: int, images,
                 ideal=None):
    """The rank of the degree-k evaluation matrix E_k of points, given as
    _distinct_points gives them, and the images at every map of exact
    members of its kernel I_k, or None; images are those of E_k at every
    residue map of linalg._images, mod p, and ideal those of members of
    I_{k-1}, or None.  The bounds, and the kernel where they do not meet,
    are those of hilbert_table's docstring.  _pivots_mod declines only
    when both rows and columns exceed 65534 at p, a matrix of over
    4 * 10^9 entries, so its ValueError is not caught here."""
    nv = len(points[0])
    cols = len(monomial_basis(k, nv))
    picked = [_pivots_mod(image, p) for image in images]
    r = len(picked[0]) if picked else None
    if picked and all(len(pivots) == r for pivots in picked):
        if r in (cols, len(points)):
            return r, None
        if ideal:
            products = [_variable_multiples(forms, k, nv) for forms in ideal]
            kept = [_pivots_mod(multiples, p) for multiples in products]
            if all(r + len(pivots) == cols for pivots in kept):
                return r, [[multiples[i] for i in kept[0]]
                           for multiples in products]
    kernel = None
    if field.kind == "rationals":
        rows = images[0]
        kernel = _kernel_mod(rows, picked[0], cols)
    else:
        rows = _evaluation_rows(points, k, field.one())
    if kernel is None:
        kernel = _exact_kernel(field, rows, cols)
    return cols - len(kernel), _images(field, kernel)[1]


def _variable_multiples(forms, k: int, nv: int) -> list[list[int]]:
    """Coefficient vectors in degree k of x_v * g, for each coefficient
    vector g of a degree-(k-1) form in forms, or its image at a residue
    map, and each variable x_v: the entries of g, shifted."""
    position = {m: i for i, m in enumerate(monomial_basis(k, nv))}
    shifts = [[position[m[:v] + (m[v] + 1,) + m[v + 1:]]
               for m in monomial_basis(k - 1, nv)] for v in range(nv)]
    out = []
    for g in forms:
        support = [(j, c) for j, c in enumerate(g) if c]
        for shift in shifts:
            row = [0] * len(position)
            for j, c in support:
                row[shift[j]] = c
            out.append(row)
    return out


def hilbert_function(points, k: int, field: FieldDescriptor = None) -> int:
    """Rank of the degree-k evaluation matrix of a duplicate-free point set.

    One value is one rank; hilbert_table gives whole tables and certifies
    degrees past stabilization without computing their ranks.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    pts, field = _distinct_points(points, field)
    return _evaluation_rank(pts, k, field)


def _lemma_counts(indices, n: int, k_max: int) -> tuple[int, ...]:
    """|Y_k| = #{I in Y : |I| - n <= k} for k = 0..k_max, where Y is the
    set of node indices given and n the number of colors.

    On a valid cage these counts are the Hilbert values h_Y(0..k_max) of
    the whole node set and of the simplicial and supra nodes, proved with
    no arithmetic; for any other Y they are lower bounds.

    Lower bound.  The Lemma in verify_supra_interpolation's docstring
    gives h_Y(k) >= |Y_k| for every set Y of nodes of a valid cage.

    Upper bound for all d^n nodes.  |Y_k| is then the complete-intersection
    count c_n(k), which fubini_slice_check's docstring proves an upper
    bound.

    Upper bound for the simplicial nodes (|I| <= d+n-1) and the supra
    nodes (|I| <= d+n).  For k <= d-1 an index I >= 1 with |I| - n <= k
    has entries at most k+1 <= d and norm at most d+n-1, so it lies in
    both selections, and Y_k is every such index: C(k+n, n) of them, the
    column count of the degree-k evaluation matrix.  From k = d-1 (simplicial) or k = d (supra) on,
    every I in Y has |I| - n <= k, so Y_k = Y, the row count.  Either
    count bounds the rank from above, and together they cover every k.

    Over Q[t]/(m) both bounds hold in every factor of Q[t]/(m), where the
    cage is valid too (Cage.validate), as those two docstrings argue.
    """
    steps = Counter(sum(index) - n for index in indices)
    return tuple(accumulate(steps[k] for k in range(k_max + 1)))


# -- interpolation and rigidity ----------------------------------------------

def group_span(cage: Cage) -> SubspaceBasis:
    """Coefficient-vector span of the n group products."""
    vectors = tuple(cage.group_polynomial(j).coefficient_vector()
                    for j in range(cage.n))
    return SubspaceBasis(len(vectors[0]), vectors)


def verify_supra_interpolation(cage: Cage) -> VerificationReport:
    """Degree-d forms through the supra-simplicial nodes are exactly the
    combinations of the n group products.

    Checks, in order: the supra evaluation matrix has full row rank, its
    kernel has dimension n, the kernel coincides with the span of the group
    products, and every kernel element vanishes on all d^n nodes, not just
    the selected ones.

    Validation proves all four, and no rank is computed; a cage that failed
    validation raises MustValidateError.  The rank rests on this

    Lemma.  Take a valid cage, k >= 0 and a set Y of its nodes, and let
    Y_k be the nodes I of Y with |I| - n <= k.  The degree-k evaluation
    matrix of Y has rank at least |Y_k|.  For I in Y_k let

        N_I = prod_j prod_{i < I_j} L_{j,i} * M_I^(k - |I| + n),

    a form of degree (|I| - n) + (k - |I| + n) = k, where M_I is any
    linear form that is a unit at node I: a cage form L_{1,i} with
    i != I_1, or the coordinate x_v of the last nonzero entry of the node's
    key, which serves for d = 1 as well.  Validation's incidence test puts
    node J on L_{j,i} exactly when i = J_j, and over Q[t]/(m) it requires
    every other value to be a unit (Cage.validate).  So N_I(J) != 0 forces
    J_j != i for every i < I_j, that is J >= I componentwise, and N_I(I)
    is a unit, a product of values L_{j,i}(I) with i != I_j and a power of
    M_I(I).  Listed in any order that extends the componentwise one, the
    matrix [N_I(J)] over I, J in Y_k is triangular with a unit diagonal,
    hence invertible: the N_I are degree-k forms whose values on Y_k are
    independent, so their values on Y are too.  This is the Newton-type
    triangular argument behind natural and principal lattices (Chung and
    Yao 1977; Gasca and Maeztu 1982).  It holds over Q, and over Q[t]/(m)
    in every factor of Q[t]/(m) when m is reducible, since a unit stays a
    unit in every factor: a full rank in the sense linalg.rank certifies.
    It needs no arithmetic.  When Y_k is all of Y the rank is also at most
    the row count, so it is |Y|.

    The supra nodes have norm at most d+n, so in degree d the Lemma gives
    their matrix full row rank |supra| = C(d+n, n) - n, a count
    supra_simplicial_indices checks.  The matrix has C(d+n, n) columns, so
    its kernel has dimension n.  Validation computes each node as an
    exactly checked kernel vector of the n forms its index names, so the
    node lies on one factor of every group product, and every group
    product vanishes on all d^n nodes.  Hence the span of the products lies
    in the kernel.  The n products are independent on every valid cage: if
    sum lambda_j F_j = 0 with lambda_k != 0, then F_k vanishes on the line
    where L_{j,1} = 0 for all j != k, so some factor L_{k,i} contains that
    line, and the tuple with i in position k and 1 elsewhere meets in more
    than a point, which validation rules out.  So the span has dimension n
    too.  A subspace of equal dimension is the whole space, so kernel and
    span coincide and the kernel vanishes on all nodes.  Over Q[t]/(m)
    each step holds in every factor, where the cage is valid too.  No
    kernel is computed, so no check carries a witness.
    """
    cage.validate()
    supra = supra_simplicial_indices(cage.d, cage.n)
    nodes, r, n = len(cage._key_table()), len(supra), cage.n
    cols = len(monomial_basis(cage.d, n + 1))
    return VerificationReport(cage.summary(), (
        CheckResult("supra-evaluation-rank", True,
                    {"rank": r, "selection-size": r, "columns": cols}),
        CheckResult("kernel-dimension", True,
                    {"kernel-dim": cols - r, "expected": n}),
        CheckResult("kernel-equals-group-span", True,
                    {"kernel-dim": cols - r, "group-span-dim": n}),
        CheckResult("kernel-vanishes-on-all-nodes", True,
                    {"node-count": nodes}),
    ))


def _simplicial_checks(cage: Cage) -> tuple[CheckResult, ...]:
    """The minimality check and the two rigidity checks, in that order, for
    the evaluation matrix of the simplicial nodes in degree d-1.  They have
    norm at most d+n-1, so the Lemma in verify_supra_interpolation's
    docstring gives the matrix full row rank C(d+n-1, n), a count
    simplicial_indices checks.  That is also its column count, so the
    matrix is square and invertible and its kernel is trivial.  No rank is
    computed; a cage that failed validation raises MustValidateError."""
    cage._key_table()
    simp = simplicial_indices(cage.d, cage.n)
    r = len(simp)
    cols = len(monomial_basis(cage.d - 1, cage.n + 1))
    return (
        CheckResult("simplicial-lower-degree-kernel-trivial", True,
                    {"rank": r, "columns": cols, "selection-size": r}),
        CheckResult("simplicial-matrix-square", True,
                    {"selection-size": r, "columns": cols}),
        CheckResult("simplicial-matrix-invertible", True,
                    {"rank": r, "size": cols}),
    )


def verify_degree_minimality(cage: Cage) -> VerificationReport:
    """No nonzero form of degree d-1 passes through the simplicial nodes."""
    cage.validate()
    return VerificationReport(cage.summary(), _simplicial_checks(cage)[:1])


def verify_simplicial_rigidity(cage: Cage) -> VerificationReport:
    """The simplicial nodes of a size-(k+1) cage rigidly pin degree-k forms:
    the square evaluation matrix in degree k = d-1 is invertible."""
    cage.validate()
    return VerificationReport(cage.summary(), _simplicial_checks(cage)[1:])


# -- slicing and Cayley-Bacharach --------------------------------------------

def fubini_slice_check(cage: Cage) -> VerificationReport:
    """Hilbert function additivity across the first-color slices.

    For every k up to the node count, h of the full node set equals the
    sum over s of h of the slice node sets (first index = s) evaluated at
    k-(s-1), with negative arguments contributing zero.

    Validation proves it, and no table is computed; a cage that failed
    validation raises MustValidateError.  Write

        c_m(k) = #{J in [1, d]^m : |J| - m <= k},

    so c_0(k) is 1 for k >= 0 and 0 below.  The full grid X has
    h_X(k) = c_n(k) and every slice X_s has h_{X_s}(k) = c_{n-1}(k):

    Lower bounds.  The Lemma in verify_supra_interpolation's docstring
    gives h_X(k) >= c_n(k).  For a slice s, list L_{1,s} first in color 1;
    the order of the forms within a color does not affect validity, and in
    that cage X_s is the nodes with I_1 = 1, for which |I| - n is
    |J| - (n-1) with J = (I_2, ..., I_n).  The Lemma on that cage gives
    h_{X_s}(k) >= c_{n-1}(k).

    Upper bounds.  The group products F_1, ..., F_n vanish on X, and
    L_{1,s}, F_2, ..., F_n vanish on X_s.  Over an algebraic closure a
    common zero of either family lies on one form of each color, and
    validation's degenerate-tuple test, a rank and so the same over the
    closure, makes those n forms meet only at a node.  So each family cuts
    out finitely many points and is a regular sequence (Macaulay 1916;
    Stanley 1978), with Hilbert series prod (1 - t^deg) / (1 - t)^(n+1):
    (1 + t + ... + t^(d-1))^n / (1 - t) and the same with exponent n-1,
    whose t^k coefficients are c_n(k) and c_{n-1}(k).  The ideal of the
    points contains the family, so these coefficients bound h from above.

    Additivity.  Write I = (s, J); then |I| - n = (s-1) + (|J| - (n-1)),
    so c_n(k) is the sum over s of c_{n-1}(k - s + 1), and no degree can
    mismatch.  Over Q[t]/(m) the argument runs in every factor of
    Q[t]/(m), where the cage is valid too (Cage.validate).
    """
    cage.validate()
    return VerificationReport(cage.summary(), (CheckResult(
        "slice-additivity", True,
        {"k-max": len(cage._key_table()), "mismatches": []}),))


def _split(partition, points: dict, what: str):
    """The two parts of a bipartition of the points' keys, as point lists.
    Parts that cover the keys with as many entries as there are points
    name each key once, so a repeated or shared key raises ValueError."""
    part1 = tuple(tuple(i) for i in partition[0])
    part2 = tuple(tuple(i) for i in partition[1])
    if (set(part1) | set(part2) != set(points)
            or len(part1) + len(part2) != len(points)):
        raise ValueError(f"partition must split the {what} exactly")
    return [points[i] for i in part1], [points[i] for i in part2]


def _cayley_bacharach(points: dict, partition, k: int, socle: int,
                      what: str, field: FieldDescriptor):
    """Both sides of the splitting identity for a bipartition X = X1 + X2
    of the points of a grid, keyed by their 1-based index (i, j) and
    valued as _distinct_points or Cage._key_table gives them:
    h_X(k) - h_X1(k) and |X2| - h_X2(socle-k), with the part sizes.

    h_X(k) is the complete-intersection count, the _lemma_counts of the
    indices, which both callers prove in their docstrings, so only the two
    parts are ranked."""
    if not 0 <= k <= socle:
        raise ValueError(f"degree {k} outside [0, {socle}]")
    x1, x2 = _split(partition, points, what)
    h_x = _lemma_counts(points, 2, k)[k]
    h_x1 = _evaluation_rank(x1, k, field)
    h_x2 = _evaluation_rank(x2, socle - k, field)
    return h_x - h_x1, len(x2) - h_x2, [len(x1), len(x2)]


def cayley_bacharach_check(cage: Cage, partition, k: int) -> VerificationReport:
    """Conditions a plane cage's nodes impose on degree-k curves split.

    For a bipartition X = X1 + X2 of the d^2 nodes of a plane cage and
    0 <= k <= 2d-3, the failure of X1 to impose independent conditions in
    degree k equals the failure of X2 in the complementary degree 2d-3-k:
    h_X(k) - h_X1(k) = |X2| - h_X2(2d-3-k).

    Only X1 and X2 are ranked; a cage that failed validation raises
    MustValidateError.  h_X(k) is c_2(k) = #{I in [1, d]^2 : |I| - 2 <= k},
    by fubini_slice_check's argument with n = 2: the Lemma in
    verify_supra_interpolation's docstring bounds it from below, and the
    two group products, a regular sequence, bound it from above.
    """
    cage.validate()
    if cage.n != 2:
        raise ValueError("this identity is implemented for plane cages only")
    socle = 2 * cage.d - 3
    lhs, rhs, split = _cayley_bacharach(cage._key_table(), partition, k,
                                        socle, "index grid", cage.field)
    return VerificationReport(cage.summary(), (CheckResult(
        "cayley-bacharach", lhs == rhs,
        {"k": k, "socle": socle, "lhs": lhs, "rhs": rhs, "split": split}),))


def transversal_points(field: FieldDescriptor, lines_a: Sequence[LinearForm],
                       lines_b: Sequence[LinearForm]):
    """Pairwise intersection points of two families of plane lines.

    Requires every pair to meet in a single point and all points distinct;
    the result is keyed by the (i, j) pair, both 1-based.
    """
    points = {}
    seen = {}
    for i, la in enumerate(lines_a, start=1):
        for j, lb in enumerate(lines_b, start=1):
            kernel = kernel_basis(Matrix(field, [la.coeffs, lb.coeffs]))
            if kernel.dim != 1:
                raise ValueError(f"lines ({i},{j}) do not meet transversally")
            pt = canonical_point(kernel.vectors[0])
            if pt in seen:
                raise ValueError(
                    f"intersection ({i},{j}) coincides with {seen[pt]}")
            seen[pt] = (i, j)
            points[(i, j)] = pt
    return points


def cayley_bacharach_pair(field: FieldDescriptor,
                          lines_a: Sequence[LinearForm],
                          lines_b: Sequence[LinearForm],
                          partition, k: int) -> VerificationReport:
    """The same splitting identity on a complete intersection of two line
    products of degrees d and e, socle degree d+e-3.

    cayley_bacharach_check shares the core rather than calling this: a
    plane cage's nodes are already the validated intersections of its two
    colors, and transversal_points would recompute them with d^2 kernels.

    Only the two parts are ranked.  h_X(k) is the count
    #{(i, j) in [1, d] x [1, e] : i + j - 2 <= k}, by the cage's argument
    (fubini_slice_check, n = 2) with a_i and b_j as the two colors.

    Incidence.  transversal_points checks that each pair a_i, b_j meets in
    exactly one point and that all d*e points are distinct.  So the point
    (i', j') lies on a_i only when i = i': otherwise it lies on a_i and
    b_j', whose one common point is (i, j'), and (i, j') and (i', j') would
    coincide.  Likewise for b_j.  So no value a_i(i', j') with i != i' or
    b_j(i', j') with j != j' is zero.  Over Q every nonzero value is a
    unit, so nothing is left to prove.  Over Q[t]/(m) the values must be
    units, or m reducible can make one zero in one factor of Q[t]/(m):
    cage._prove_off_hyperplane, run on the two line families as on the
    colors of a cage, finds no incidence failure and proves every value a
    unit from residues or by inversion, or raises ReducibleModulusError, at
    every k.

    Lower bound.  With that incidence, the Lemma in
    verify_supra_interpolation's docstring runs on the pair as on a cage
    with colors a and b: its triangular matrix has a unit diagonal, so
    h_X(k) is at least the count.

    Upper bound.  Over an algebraic closure a common zero of prod a_i and
    prod b_j lies on some a_i and some b_j, which meet only at (i, j):
    transversal_points proves that with a kernel, which inverts its pivots,
    so it holds in every factor and over the closure.  So the two products
    cut out finitely many points and are a regular sequence, with Hilbert
    series (1 + ... + t^(d-1)) (1 + ... + t^(e-1)) / (1 - t), whose t^k
    coefficient is the count; they vanish on X, so the count bounds h_X(k)
    from above.
    """
    d, e = len(lines_a), len(lines_b)
    socle = d + e - 3
    points = transversal_points(field, lines_a, lines_b)
    keys = dict(zip(points, _distinct_points(points.values(), field)[0]))
    if field.kind != "rationals":
        _prove_off_hyperplane(field, [[line.coeffs for line in lines]
                                      for lines in (lines_a, lines_b)],
                              keys, [])
    lhs, rhs, _ = _cayley_bacharach(keys, partition, k, socle,
                                    "intersection grid", field)
    return VerificationReport(
        {"d": d, "e": e, "field": field.label},
        (CheckResult("cayley-bacharach-pair", lhs == rhs,
                     {"k": k, "socle": socle, "lhs": lhs, "rhs": rhs}),))


# -- smoothness ---------------------------------------------------------------

def smoothness_check(variety: LambdaMatrix,
                     cage: Optional[Cage] = None) -> VerificationReport:
    """The inscribed variety passes through every node smoothly: each
    defining pencil vanishes on all nodes and the Jacobian has rank exactly
    s everywhere on the node set.  A cage other than the variety's raises
    ValueError, a lambda row without n entries ShapeError, and dependent
    lambda rows ValueError.

    Both claims follow from validation and the one rank of lambda, so no
    node is visited.  Nodes exist only after validation has checked that
    each node lies on the factor of every group product its index names,
    so every group product, and every pencil combining them, vanishes at
    every node.  At the node p with index I the Jacobian of the pencils
    contains the s x n chart-local block lambda * D_p, where D_p is
    node_differentials: diag(c_j) times the chart-local rows of the forms
    L_{j,I_j}, with c_j the product of L_{j,i}(p) over i != I_j.
    Validation's incidence check makes every c_j nonzero, and its
    degenerate-tuple check gives the n forms L_{j,I_j} rank n with kernel
    spanned by p, where p[chart] = 1, so dropping the chart column loses
    no rank.  D_p is therefore invertible, the block has rank
    rank(lambda) = s, and the Jacobian, with s rows, has rank exactly s.
    """
    if cage is not None and cage is not variety.cage:
        raise ValueError("cage differs from the variety's cage")
    cage = variety.cage
    cage.validate()
    if any(len(row) != cage.n for row in variety.rows):
        raise ShapeError(f"lambda rows need {cage.n} entries")
    if rank(Matrix(cage.field, variety.rows)) != variety.s:
        raise ValueError("lambda rows are linearly dependent")
    return VerificationReport(cage.summary(), (
        CheckResult("pencils-vanish-on-nodes", True,
                    {"s": variety.s, "node-count": len(cage._key_table())}),
        CheckResult("jacobian-rank-at-nodes", True,
                    {"expected-rank": variety.s, "singular-nodes": []}),
    ))


def complete_intersection_span_check(polys: Sequence[HomogPoly],
                                     cage: Cage) -> bool:
    """Whether every given degree-d form is a combination of the group
    products.

    Vanishing on all d^n nodes is a precondition and is checked; a
    non-vanishing input is a usage error, not a False result.

    One rank decides both, that of the group products stacked with the
    inputs.  The n products vanish on every node and are independent on a
    valid cage, as verify_supra_interpolation's docstring proves, so the
    rank is n exactly when every input is a combination of them, and then
    every input vanishes on the nodes too.  Only a larger rank evaluates
    the inputs at the nodes, to name the first node where one does not
    vanish, or else to return False.
    """
    cage.validate()
    for poly in polys:
        if poly.num_vars != cage.n + 1 or poly.degree != cage.d:
            raise ShapeError(
                f"expected degree {cage.d} in {cage.n + 1} variables, got "
                f"degree {poly.degree} in {poly.num_vars}")
    stacked = group_span(cage).vectors + tuple(
        p.coefficient_vector() for p in polys)
    if rank(Matrix(cage.field, stacked)) == cage.n:
        return True
    for poly in polys:
        for node in cage.nodes():
            if not poly.evaluate(node.point).is_zero():
                raise ValueError(
                    f"input does not vanish at node {node.index}")
    return False


# -- the deficient selection -------------------------------------------------

def independence_counterexample() -> VerificationReport:
    """Node count alone does not control interpolation.

    On the 4x4 axis grid over {0,1,2,3}^2, removing the three nodes indexed
    (4,2), (4,3), (4,4) leaves 13 nodes, the same count as the
    supra-simplicial selection, yet degree-4 curves through the 13 leftover
    nodes form a strictly larger family: the kernel jumps to dimension >= 3
    and contains a product of lines outside the group-product span.
    """
    field = FieldDescriptor.rationals()
    grid = [(i, i) for i in range(4)]
    cage = axis_cage(field, grid)
    removed = {(4, 2), (4, 3), (4, 4)}
    deficient = NodeSelection("deficient", tuple(
        i for i in all_indices(4, 2) if i not in removed))
    supra = supra_simplicial_indices(4, 2)
    checks = [CheckResult(
        "same-cardinality", len(deficient) == len(supra),
        {"deficient": len(deficient), "supra": len(supra)})]
    cols = len(monomial_basis(4, 3))
    # the supra rank is its selection size, as verify_supra_interpolation
    # proves
    supra_dim = cols - len(supra)
    checks.append(CheckResult(
        "supra-kernel-dimension", supra_dim == 2,
        {"kernel-dim": supra_dim, "expected": 2}))
    # explicit extra curve: three vertical lines and one horizontal line
    factors = [LinearForm(field, [1, 0, 0]),
               LinearForm(field, [1, 0, -1]),
               LinearForm(field, [1, 0, -2]),
               LinearForm(field, [0, 1, 0])]
    extra = product_of_linear_forms(factors)
    vanishes = all(extra.evaluate(cage.node(i).point).is_zero()
                   for i in deficient.indices)
    misses = all(not extra.evaluate(cage.node(i).point).is_zero()
                 for i in sorted(removed))
    # validation puts every node on each group product, so every member of
    # their span vanishes at the removed nodes too: missing them puts the
    # witness outside the span.  The Lemma in verify_supra_interpolation's
    # docstring bounds the degree-4 rank of the deficient nodes below by
    # |Y_4|, every node but (3, 4).  The n group products, independent as
    # that docstring proves, and the witness vanish on them, and the
    # witness lies outside their span: once both hold, three independent
    # quartics lie in the kernel, so the rank is at most cols - 3 and the
    # bound is the rank
    deficient_dim = cols - _lemma_counts(deficient.indices, cage.n, 4)[4]
    checks.append(CheckResult(
        "deficient-kernel-dimension",
        vanishes and misses and deficient_dim >= 3,
        {"kernel-dim": deficient_dim, "expected-at-least": 3}))
    checks.append(CheckResult(
        "witness-through-deficient-only", vanishes and misses, {}, extra))
    checks.append(CheckResult(
        "witness-outside-group-span", misses, {}, extra))
    # the deficient kernel is the quartics through the deficient nodes, so
    # vanishing there is membership
    checks.append(CheckResult(
        "witness-in-deficient-kernel", vanishes, {}, extra))
    return VerificationReport(cage.summary(), tuple(checks))


# -- suites -------------------------------------------------------------------

SUITE_CHECKS = ("validation", "interpolation", "minimality", "rigidity",
                "fubini")
DEFAULT_SUITE = ("validation", "interpolation", "minimality")


def run_suite(cage: Cage, checks: Sequence[str] = DEFAULT_SUITE
              ) -> VerificationReport:
    """Run the named cage-level checks and collect their results in order.

    "fubini" is opt-in, so that the reports of the default suite keep
    their checks.  A cage that fails validation short-circuits to a single
    failed check: none of the node-level statements are meaningful without
    the node set.  An empty list, a name not in SUITE_CHECKS and a name
    given twice raise ValueError before validation, so that a report
    always runs each check it names once, and never runs none.
    """
    checks = tuple(checks)
    if not checks:
        raise ValueError("no check named")
    for i, name in enumerate(checks):
        if name not in SUITE_CHECKS:
            raise ValueError(f"unknown check {name!r}")
        if name in checks[:i]:
            raise ValueError(f"check {name!r} named twice")
    gate = cage.validate()
    if not gate.valid:
        return VerificationReport(cage.summary(), (CheckResult(
            "validation", False,
            {"node-count": gate.node_count,
             "failures": [f"{f.kind} at {f.index}" for f in gate.failures],
             "skipped": [c for c in checks if c != "validation"]}),))
    out = []
    for name in checks:
        if name == "validation":
            out.append(CheckResult("validation", True,
                                   {"node-count": gate.node_count,
                                    "failures": []}))
        elif name == "interpolation":
            out.extend(verify_supra_interpolation(cage).checks)
        elif name == "minimality":
            out.extend(verify_degree_minimality(cage).checks)
        elif name == "rigidity":
            out.extend(verify_simplicial_rigidity(cage).checks)
        else:
            out.extend(fubini_slice_check(cage).checks)
    return VerificationReport(cage.summary(), tuple(out))
