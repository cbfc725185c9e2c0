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
from .linalg import (Matrix, SubspaceBasis, _chart, _divided, _kernel,
                     _prepared, dot, rank)
from .poly import HomogPoly

Vector = tuple[FieldElement, ...]


def chart_of(node: Node) -> int:
    """Chart index of a node: linalg._chart of its point, the position of
    its trailing 1.  A zero point raises ValueError."""
    return _chart(node.point)


@dataclass(frozen=True)
class TangentSubspace:
    """A linear subspace of the tangent space at a node, in chart-local
    coordinates (all coordinates except the chart one, in order).  The
    chart is the node's, chart_of(node), so it cannot disagree with the
    node."""

    node: Node
    basis: tuple[Vector, ...]

    @property
    def chart(self) -> int:
        return chart_of(self.node)

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
    return TangentSubspace(node, vecs)


@dataclass(frozen=True)
class LambdaMatrix:
    """Row coefficients of pencil combinations cutting an inscribed variety.

    Each of the s rows gives one combination of the cage's n group products;
    the rows are the canonical kernel basis of linalg._kernel, one per free
    column, 1 there and 0 at the other free columns, so they are linearly
    independent, and only their span is geometrically meaningful.
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


def node_differentials(cage: Cage, node: Node) -> Matrix:
    """n x n matrix whose row j is the chart-local differential of the j-th
    group product at the node.

    At the node p with index I the factor L_{j,I_j} of product j vanishes,
    so the product rule leaves one term: row j is c_j times the
    coefficients of L_{j,I_j}, chart column dropped, where c_j is the
    product of L_{j,i}(p) over i != I_j.  The matrix is invertible by
    validation: its incidence check puts p on no factor its index does not
    name, so every c_j is nonzero, and its degenerate-tuple check gives the
    n forms L_{j,I_j} rank n, so their kernel is spanned by p.  A
    chart-local kernel vector lifted with a zero chart entry would lie in
    that kernel, which p[chart] = 1 rules out.  The rows are the cage's
    table (Cage._node_differentials) divided by its D.  A Node that is not
    the cage's node at its index raises ValueError.
    """
    lead, rows = _differential_rows(cage, node)
    return Matrix(cage.field, [_divided(cage.field, row, lead)
                               for row in rows])


def _differential_rows(cage: Cage, node: Node) -> tuple:
    """The node's entry (D, rows) of Cage._node_differentials, once the
    node is checked to be the cage's node at its index; nothing is
    prepared here.  A Node that is not the cage's node at its index raises
    ValueError.
    """
    if cage._node_table().get(tuple(node.index)) != node:
        raise ValueError(f"point is not the cage's node {node.index}")
    return cage._node_differentials()[node.index]


def inscribe_with_tangent(cage: Cage, node: Node,
                          tangent: TangentSubspace) -> LambdaMatrix:
    """The unique codimension-s inscribed variety tangent to `tangent`.

    s = n - tangent.dim must be at least 1.  The rows returned span all
    pencil combinations whose differential at the node annihilates the
    prescribed tangent subspace: the canonical kernel basis of the
    constraint matrix, whose row k is D_p v_k for tangent vector v_k, D_p
    being node_differentials.  Row k is the rows of the cage's table
    (Cage._node_differentials) dotted with linalg._prepared of v_k, ints
    over Q and field elements over Q[t]/(m), with the kernel the table's
    docstring proves.  A tangent attached to a Node other than node, or a
    node that is not the cage's node at its index, raises ValueError, and
    a vector without n entries ShapeError.  With no tangent vector there
    is no row, and the basis is the identity: all n group products.
    """
    if tangent.node != node:
        raise ValueError("tangent subspace is attached to a different node")
    field, n = cage.field, cage.n
    s = n - tangent.dim
    if s < 1:
        raise ValueError("full-dimensional tangent prescribes nothing")
    _, rows = _differential_rows(cage, node)
    constraints = []
    for v in tangent.basis:
        if len(v) != n:
            raise ShapeError(f"tangent vectors need {n} chart-local entries")
        _, v = _prepared(field, v)
        constraints.append([dot(row, v) for row in rows])
    kernel = _kernel(field, constraints, n)
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
    rank.  _forced_tangent builds the Jacobian on the cage's table.  A
    Node that is not the cage's node at its index raises ValueError, and a
    lambda row without n entries ShapeError.
    """
    cage = variety.cage
    _, rows = _differential_rows(cage, node)
    if any(len(lams) != cage.n for lams in variety.rows):
        raise ShapeError(f"lambda rows need {cage.n} entries")
    return _forced_tangent(variety, _lambda_rows(variety), node, rows)


def _lambda_rows(variety: LambdaMatrix) -> list:
    """The lambda rows, each linalg._prepared: ints over Q, a positive
    multiple of the row, elements over Q[t]/(m)."""
    field = variety.cage.field
    return [_prepared(field, lams)[1] for lams in variety.rows]


def _forced_tangent(variety: LambdaMatrix, lambdas: Sequence[Sequence],
                    node: Node, rows: Sequence[Sequence]) -> TangentSubspace:
    """tangent_at_node at a node of the variety's cage, from the prepared
    lambda rows (_lambda_rows) and the node's rows of
    Cage._node_differentials; the node is not checked.  Jacobian row i is
    sum_j lambda_ij times table row j, by multiply-adds, with the kernel
    the table's docstring proves.  A zero lambda row adds no row.  A kernel
    of dimension other than n - s raises SingularNodeError.
    """
    field, n = variety.cage.field, variety.cage.n
    jacobian = []
    for lams in lambdas:
        acc = None
        for lam, row in zip(lams, rows):
            if lam:
                acc = ([lam * x for x in row] if acc is None else
                       [a + lam * x for a, x in zip(acc, row)])
        if acc is not None:
            jacobian.append(acc)
    kernel = _kernel(field, jacobian, n)
    if n - len(kernel) != variety.s:
        raise SingularNodeError(
            f"variety is singular at node {node.index}")
    return TangentSubspace(node, kernel)


def propagate_tangents(cage: Cage, node: Node,
                       tangent: TangentSubspace) -> Mapping[tuple, TangentSubspace]:
    """Inscribe at one node, then read the forced tangent at every node.

    Returns an index-keyed map over all nodes, in node order; the entry at
    the starting node recovers the prescribed subspace.  The lambda rows
    are prepared once, then the forced tangents are read in one pass over
    the cage's node table and its differential table
    (Cage._node_differentials).  Those nodes are the cage's by
    construction, so none is checked again, and every entry is the basis
    tangent_at_node gives, entry for entry.
    """
    variety = inscribe_with_tangent(cage, node, tangent)
    lambdas = _lambda_rows(variety)
    table = cage._node_differentials()
    return {index: _forced_tangent(variety, lambdas, q, table[index][1])
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
    chart, new_basis = tangent.chart, []
    for v in tangent.basis:
        lift = list(v[:chart]) + [field.zero()] + list(v[chart:])
        w = [field.coerce(dot(row, lift)) for row in g.entries]
        wc = w[new_chart]
        local = [w[i] * qc - big_q[i] * wc
                 for i in range(len(src)) if i != new_chart]
        new_basis.append(tuple(local))
    if new_basis and rank(Matrix(field, new_basis)) != len(new_basis):
        raise ValueError("the map sends the tangent vectors to dependent "
                         "ones")
    return TangentSubspace(image_node, tuple(new_basis))

