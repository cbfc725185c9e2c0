"""Inscribing complete intersections with a prescribed tangent at one node.

Everything here works in the affine chart of a node's canonical
representative: the chart is the position of the trailing 1, and chart-local
vectors list the remaining n coordinates in order.  The conormal directions
available at a node p are spanned by the differentials of the n group
products; prescribing a tangent subspace tau at p singles out the
combinations of group products whose differentials annihilate tau, and those
combinations cut the unique inscribed variety.  Its tangent space at any
other node is then forced, and reading those forced tangents off is exact
linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .cage import Cage, Node
from .errors import ShapeError, SingularNodeError
from .field import FieldElement
from .linalg import (Matrix, SubspaceBasis, _kernel, _prepared, dot, rank,
                     span_equal)
from .poly import HomogPoly

Vector = tuple[FieldElement, ...]


def chart_of(node: Node) -> int:
    """Chart index of a canonical point: position of its trailing 1."""
    for i in range(len(node.point) - 1, -1, -1):
        if not node.point[i].is_zero():
            return i
    raise ValueError("node has a zero point")


@dataclass(frozen=True)
class TangentSubspace:
    """A linear subspace of the tangent space at a node, in chart-local
    coordinates (all coordinates except the chart one, in order)."""

    node: Node
    chart: int
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def make_tangent(node: Node, vectors: Sequence[Sequence]) -> TangentSubspace:
    """Tangent subspace at a node from chart-local vectors.

    Vectors must be linearly independent and have n entries (ambient
    coordinates minus the chart one).
    """
    field = node.point[0].field
    n = len(node.point) - 1
    vecs = tuple(tuple(field.coerce(x) for x in v) for v in vectors)
    for v in vecs:
        if len(v) != n:
            raise ShapeError(f"tangent vectors need {n} chart-local entries")
    if vecs and rank(Matrix(field, vecs)) != len(vecs):
        raise ValueError("tangent vectors are linearly dependent")
    return TangentSubspace(node, chart_of(node), vecs)


@dataclass(frozen=True)
class LambdaMatrix:
    """Row coefficients of pencil combinations cutting an inscribed variety.

    Each of the s rows gives one combination of the cage's n group products;
    the rows are the canonical kernel basis of linalg.kernel_basis, one per
    free column, 1 there and 0 at the other free columns, so they are
    linearly independent, and only their span is geometrically meaningful.
    """

    cage: Cage
    rows: tuple[Vector, ...]

    @property
    def s(self) -> int:
        return len(self.rows)

    def polynomials(self) -> tuple[HomogPoly, ...]:
        return tuple(self.cage.pencil(row) for row in self.rows)

    def row_span(self) -> SubspaceBasis:
        return SubspaceBasis(self.cage.n, self.rows)

    def same_variety(self, other: "LambdaMatrix") -> bool:
        return span_equal(self.row_span(), other.row_span())


def node_differentials(cage: Cage, node: Node) -> Matrix:
    """n x n matrix whose row j is the chart-local differential of the j-th
    group product at the node.

    At the node p with index I the factor L_{j,I_j} of product j vanishes,
    so the product rule leaves one term: row j is c_j times the
    coefficients of L_{j,I_j}, chart column dropped, where c_j is the
    product of L_{j,i}(p) over i != I_j.  The cofactors c_j come from the
    cage's table (Cage._node_cofactors), built once per cage from the keys
    validation gave the nodes.  The matrix is invertible by validation: its
    incidence check puts p on no factor its index does not name, so every
    c_j is nonzero, and its degenerate-tuple check gives the n forms
    L_{j,I_j} rank n, so their kernel is spanned by p.  A chart-local
    kernel vector lifted with a zero chart entry would lie in that kernel,
    which p[chart] = 1 rules out.  A Node that is not the cage's node at
    its index raises ValueError.  Row j is the table's pair multiplied
    out, chart column dropped: (c_j / s_j)(s_j L) = c_j L, entry for entry.
    """
    chart = chart_of(node)
    return Matrix(cage.field, [[c * a for i, a in enumerate(vector)
                                if i != chart]
                               for c, vector in _differential_rows(cage, node)])


def _differential_rows(cage: Cage, node: Node) -> tuple:
    """The node's entry of the cofactor table, once the node is checked to
    be the cage's node at its index: for every color j the pair
    (c_j / s_j, A_j), A_j = s_j L_{j,I_j} the row linalg._prepared makes
    of the whole form, s_j its scale, so that c_j L_{j,I_j} = (c_j / s_j)
    A_j.  Over Q that is an element and ints, over Q[t]/(m), where s_j is
    1, c_j and the form's coefficients.  Nothing is prepared here.  A Node
    that is not the cage's node at its index raises ValueError.
    """
    try:
        on_cage = cage.node(node.index) == node
    except KeyError:
        on_cage = False
    if not on_cage:
        raise ValueError(f"point is not the cage's node {node.index}")
    return cage._node_cofactors()[node.index]


def inscribe_with_tangent(cage: Cage, node: Node,
                          tangent: TangentSubspace) -> LambdaMatrix:
    """The unique codimension-s inscribed variety tangent to `tangent`.

    s = n - tangent.dim must be at least 1.  The rows returned span all
    pencil combinations whose differential at the node annihilates the
    prescribed tangent subspace: the canonical kernel basis of the
    constraint matrix, whose row k is D_p v_k for tangent vector v_k, D_p
    being node_differentials.  Its column j is c_j (L_{j,I_j} . v_k), the
    form's chart-local coefficients dotted with v_k, which the cofactor
    table writes as (c_j / s_j)(A_j . v_k), s_j the scale of the whole form
    and v_k lifted with a zero chart entry.  Over Q the node's n weights
    c_j / s_j are scaled once by the lcm D of their denominators, which
    makes each an int w_j, and v_k is replaced by linalg._prepared of it,
    a positive multiple of v_k, so each A_j . v_k is an int.  Column j is
    then w_j (A_j . v_k), an int, and the row is D times the scale of v_k
    times D_p v_k, whichever scales s_j the table chose: they change only
    that factor.  Scaling a row by a nonzero rational changes neither the
    kernel nor the RREF, so linalg._kernel of these integer rows is the
    basis kernel_basis gives for the constraint matrix over Q, entry for
    entry, and no field element is multiplied.  Over Q[t]/(m) the row is
    c_j (A_j . v_k) in field elements.  A vector without n entries raises
    ShapeError.  With no tangent vector there is no row, and the basis is
    the identity: all n group products.
    """
    if tangent.node.index != node.index:
        raise ValueError("tangent subspace is attached to a different node")
    if tangent.chart != chart_of(node):
        raise ValueError("tangent chart differs from the node's chart")
    field, n = cage.field, cage.n
    s = n - tangent.dim
    if s < 1:
        raise ValueError("full-dimensional tangent prescribes nothing")
    cofactors = _differential_rows(cage, node)
    _, weights = _prepared(field, [c for c, _ in cofactors])
    rows = []
    for v in tangent.basis:
        if len(v) != n:
            raise ShapeError(f"tangent vectors need {n} chart-local entries")
        _, v = _prepared(field, v)
        v.insert(tangent.chart, 0)
        rows.append([w * dot(vector, v)
                     for w, (_, vector) in zip(weights, cofactors)])
    kernel = _kernel(field, rows, n)
    if len(kernel) != s:
        raise SingularNodeError(
            f"expected a {s}-dimensional solution, got {len(kernel)}")
    return LambdaMatrix(cage, kernel)


def tangent_at_node(variety: LambdaMatrix, node: Node) -> TangentSubspace:
    """Tangent space of the inscribed variety at any node of its cage.

    The tangent space is the kernel of the s x n chart-local Jacobian, the
    lambda rows times the node differentials, which must have full rank s,
    matching smoothness of the variety at the node.  Its rank is the rank
    of the full s x (n+1) Jacobian.  Every group product F_j vanishes at the
    node p, as validation certifies.  Euler's identity sum_i p_i
    dF_j/dx_i(p) = d F_j(p) = 0 and p[chart] = 1, the canonical point's
    trailing 1, then make the chart column of the full Jacobian equal to
    -sum over i != chart of p_i times column i, so dropping it loses no
    rank.

    Row i of the chart-local Jacobian is sum_j lambda_ij c_j times the
    chart-local coefficients of L_{j,I_j}, which the cofactor table writes
    as sum_j lambda_ij (c_j / s_j) A_j, chart column dropped, s_j the scale
    of the whole form.  Over Q the node's n weights c_j / s_j are scaled
    once by the lcm D of their denominators, which makes each an int w_j,
    and lambda row i is replaced by linalg._prepared of it, r_i times the
    row in ints.  Row i is then sum_j (r_i lambda_ij w_j) A_j, built by
    integer multiply-adds: the Jacobian row times D r_i, whichever scales
    s_j the table chose, as they change only that factor.  Scaling a row by
    a nonzero rational changes neither the kernel nor the RREF, so
    linalg._kernel of these integer rows is the basis kernel_basis gives
    for the Jacobian over Q, entry for entry, and no field element is
    multiplied.  Over Q[t]/(m) the rows are the same sums in field
    elements.  A Node that is not the cage's node at its index raises
    ValueError, and a lambda row without n entries ShapeError.
    """
    cage = variety.cage
    cofactors = _differential_rows(cage, node)
    if any(len(lams) != cage.n for lams in variety.rows):
        raise ShapeError(f"lambda rows need {cage.n} entries")
    return _forced_tangent(variety, _lambda_rows(variety), node, cofactors)


def _lambda_rows(variety: LambdaMatrix) -> list:
    """The lambda rows, each linalg._prepared: ints over Q, a positive
    multiple of the row, elements over Q[t]/(m)."""
    field = variety.cage.field
    return [_prepared(field, lams)[1] for lams in variety.rows]


def _forced_tangent(variety: LambdaMatrix, lambdas: Sequence[Sequence],
                    node: Node, cofactors: Sequence[tuple]) -> TangentSubspace:
    """tangent_at_node at a node of the variety's cage, from the prepared
    lambda rows (_lambda_rows) and the node's cofactor pairs
    (c_j / s_j, A_j); the node is not checked.  The rows are the integer
    rows of tangent_at_node's docstring over Q, the field-element sums over
    Q[t]/(m); a zero lambda row adds no row.  A kernel of dimension other
    than n - s raises SingularNodeError.
    """
    field, n = variety.cage.field, variety.cage.n
    chart = chart_of(node)
    _, weights = _prepared(field, [c for c, _ in cofactors])
    rows = []
    for lams in lambdas:
        acc = None
        for lam, w, (_, vector) in zip(lams, weights, cofactors):
            if lam:
                k = lam * w
                acc = ([k * x for x in vector] if acc is None else
                       [a + k * x for a, x in zip(acc, vector)])
        if acc is not None:
            rows.append(acc[:chart] + acc[chart + 1:])
    kernel = _kernel(field, rows, n)
    if n - len(kernel) != variety.s:
        raise SingularNodeError(
            f"variety is singular at node {node.index}")
    return TangentSubspace(node, chart, kernel)


def propagate_tangents(cage: Cage, node: Node,
                       tangent: TangentSubspace) -> Mapping[tuple, TangentSubspace]:
    """Inscribe at one node, then read the forced tangent at every node.

    Returns an index-keyed map over all nodes, in node order; the entry at
    the starting node recovers the prescribed subspace.  The lambda rows
    are prepared once, then the forced tangents are read in one pass over
    the cage's node table and its cofactor table (Cage._node_cofactors).
    Those nodes are the cage's by construction, so none is checked again.
    Each node's n weights c_j / s_j are scaled once by the lcm of their
    denominators, and every Jacobian row is an integer combination of the
    table's integer vectors over Q, the Jacobian row times a nonzero
    rational, as tangent_at_node's docstring shows.  That scaling changes
    neither the kernel nor the RREF, so every entry is the basis
    tangent_at_node gives, entry for entry.
    """
    variety = inscribe_with_tangent(cage, node, tangent)
    lambdas = _lambda_rows(variety)
    cofactors = cage._node_cofactors()
    return {index: _forced_tangent(variety, lambdas, q, cofactors[index])
            for index, q in cage._node_table().items()}


def transport_tangent(tangent: TangentSubspace, g: Matrix,
                      image_node: Node) -> TangentSubspace:
    """Push a tangent subspace forward along a projective map.

    image_node must be the image of tangent.node under g, already in
    canonical form.  Lifts each chart-local vector to the cone, applies g,
    and rewrites in the image node's chart.  Raises ValueError when
    image_node is not that image, or when g maps the tangent vectors to
    dependent ones.
    """
    field = tangent.node.point[0].field
    src = tangent.node.point
    if g.rows != len(src) or g.cols != len(src):
        raise ShapeError("transport needs a square matrix of ambient size")
    big_q = [field.coerce(dot(row, src)) for row in g.entries]
    new_chart = chart_of(image_node)
    qc = big_q[new_chart]
    if qc.is_zero():
        raise ValueError("image point leaves the target chart")
    if (len(image_node.point) != len(big_q)
            or any(x != qc * y for x, y in zip(big_q, image_node.point))):
        raise ValueError("image_node is not the image of the tangent's node")
    new_basis = []
    for v in tangent.basis:
        lift = list(v[:tangent.chart]) + [field.zero()] + list(v[tangent.chart:])
        w = [field.coerce(dot(row, lift)) for row in g.entries]
        wc = w[new_chart]
        local = [w[i] * qc - big_q[i] * wc
                 for i in range(len(src)) if i != new_chart]
        new_basis.append(tuple(local))
    if new_basis and rank(Matrix(field, new_basis)) != len(new_basis):
        raise ValueError("the map sends the tangent vectors to dependent "
                         "ones")
    return TangentSubspace(image_node, new_chart, tuple(new_basis))

