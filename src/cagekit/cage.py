"""Cages of hyperplanes in projective n-space and their node combinatorics.

A cage of size d in P^n is n color groups of d hyperplanes each, such that
every choice of one hyperplane per color meets in a single point and the
resulting d^n nodes are pairwise distinct, with no node lying on any
hyperplane it does not index.  Nodes carry their multi-index I in [1,d]^n;
the norm of an index is the sum of its entries.

Two distinguished node selections drive everything downstream: the
simplicial set (norm <= d+n-1, which has C(d+n-1, n) elements) and the
supra-simplicial set (norm <= d+n, which has C(d+n, n) - n elements).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb, lcm, prod
from operator import mul
from typing import Optional, Sequence

from .errors import CageValidationError, MustValidateError, ShapeError
from .field import FieldDescriptor, FieldElement
from .linalg import (Matrix, _chart, _divided, _images, _prepared, dot,
                     kernel_basis, primitive)
from .poly import HomogPoly, LinearForm, product_of_linear_forms

Index = tuple[int, ...]

# validation costs one (n-1) x (n+1) kernel per line of d nodes, d^(n-1) in
# all, plus work per node, so the node count is bounded
MAX_NODES = 4096

# candidates random_cage draws before giving up (fewer for cages of more
# than 256 nodes)
MAX_ATTEMPTS = 200


def norm(index: Index) -> int:
    return sum(index)


def all_indices(d: int, n: int) -> tuple[Index, ...]:
    """Every multi-index in [1,d]^n, lexicographic."""
    return tuple(itertools.product(range(1, d + 1), repeat=n))


def _check_size(d: int, n: int) -> None:
    """Raise ShapeError when d or n is below 1, or when max(d, 2)^n exceeds
    MAX_NODES, so a huge n is refused for d = 1 too; the loop stops past
    the limit, before any huge power is formed."""
    if d < 1 or n < 1:
        raise ShapeError(f"a cage needs d >= 1 and n >= 1, not d={d}, n={n}")
    count = 1
    for _ in range(n):
        count *= max(d, 2)
        if count > MAX_NODES:
            raise ShapeError(f"a cage with d={d}, n={n} exceeds the limit "
                             f"of {MAX_NODES} nodes (max(d, 2)^n)")


@dataclass(frozen=True)
class NodeSelection:
    """A named subset of the multi-index grid [1,d]^n."""

    kind: str
    indices: tuple[Index, ...]

    def __len__(self):
        return len(self.indices)


def _selection(kind: str, d: int, n: int, max_norm: int,
               expected: int) -> NodeSelection:
    picked = tuple(i for i in all_indices(d, n) if norm(i) <= max_norm)
    if len(picked) != expected:
        raise RuntimeError(f"{kind} selection has {len(picked)} indices, "
                           f"expected {expected}")
    return NodeSelection(kind, picked)


def simplicial_indices(d: int, n: int) -> NodeSelection:
    """Indices of norm <= d+n-1; exactly C(d+n-1, n) of them."""
    return _selection("simplicial", d, n, d + n - 1, comb(d + n - 1, n))


def supra_simplicial_indices(d: int, n: int) -> NodeSelection:
    """Indices of norm <= d+n; exactly C(d+n, n) - n of them."""
    return _selection("supra-simplicial", d, n, d + n, comb(d + n, n) - n)


@dataclass(frozen=True)
class Node:
    """A cage node: its multi-index and canonical projective coordinates.

    The point is normalized so that its last nonzero coordinate is 1, which
    makes representatives directly comparable.
    """

    index: Index
    point: tuple[FieldElement, ...]


@dataclass(frozen=True)
class ValidationFailure:
    kind: str
    index: Index
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    node_count: int
    failures: tuple[ValidationFailure, ...]


def canonical_point(vector: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """Scale a nonzero vector so that its entry at its chart
    (linalg._chart, its last nonzero entry) becomes 1."""
    inv = vector[_chart(vector)].inverse()
    return tuple(inv * v for v in vector)


def _point_key(field: FieldDescriptor, row: Sequence) -> tuple:
    """The key of the projective point of a linalg._prepared row, the same
    for all its nonzero multiples: over Q linalg.primitive of the integer
    row, over Q[t]/(m) canonical_point."""
    if field.kind == "rationals":
        return primitive(row)
    return canonical_point(row)


def _prove_off_hyperplane(field: FieldDescriptor, forms, keys, failures):
    """Test once each value a form takes at a node its index does not name:
    append an incidence failure for each zero value, in node order, then
    color and form order, and prove every other value a unit.

    forms are the forms validate() prepared, by color, and keys its node
    keys, by index; verify.cayley_bacharach_pair passes its two line
    families and their intersection points the same way, over Q[t]/(m)
    only.  A form vanishes at a node exactly when it vanishes at the node's
    key, a nonzero multiple of the node vector, so the value is taken at
    the key.

    Over Q every value is computed exactly, an integer product on the rows
    validate() prepared, and a nonzero rational is a unit; validate() calls
    it over Q only after its sweep has failed, as its docstring proves.
    Over Q[t]/(m) the residues of the forms are taken once and those of a
    key once per node, by linalg._images, which converts each coefficient
    mod p once and then evaluates it at every root.  A value whose
    residue is nonzero at every residue map of the field is nonzero in
    every factor of Q[t]/(m), hence a unit: every factor owns a root of
    m mod p and the map at that root factors through it, as the linalg
    module docstring proves.  Only the
    other values are computed exactly: a zero one is an incidence failure,
    and a nonzero one is inverted once failures holds nothing at all, which
    raises ReducibleModulusError on a zero divisor as FieldDescriptor
    promises.  A value is computed exactly also when the field has no
    residue map or p divides a denominator of the form or the key.
    """
    units = field.kind != "rationals"

    def residues(vector):
        """p and the vector's residues at every map; none, proving
        nothing, over Q, or when there is no map or p divides a
        denominator."""
        p, images = _images(field, [vector]) if units else (0, [])
        return p, [image[0] for image in images]
    tests = [(j, k, form, residues(form)[1])
             for j, group in enumerate(forms)
             for k, form in enumerate(group, start=1)]
    pending = []
    for index, key in keys.items():
        p, point = residues(key)
        for j, k, form, image in tests:
            if k == index[j] or image and point and all(
                    dot(f, x) % p for f, x in zip(image, point)):
                continue
            value = sum(map(mul, form, key))
            if not value:
                failures.append(ValidationFailure(
                    "incidence", index, f"color {j + 1} hyperplane {k}: "
                    "vanishing pattern violated"))
            elif units:
                pending.append(value)
    if not failures:
        for value in pending:
            value.inverse()


class Cage:
    """n color groups of d hyperplanes each in P^n (so n+1 coordinates).

    Construction checks only the shape; call validate() to certify the
    transversality and distinctness conditions before asking for nodes.
    """

    __slots__ = ("field", "groups", "n", "d", "attempts",
                 "_report", "_keys", "_nodes", "_differentials")

    def __init__(self, field: FieldDescriptor,
                 groups: Sequence[Sequence[LinearForm]],
                 attempts: Optional[int] = None):
        groups = tuple(tuple(g) for g in groups)
        if not groups or not groups[0]:
            raise ShapeError("cage needs at least one color and one form")
        n = len(groups)
        d = len(groups[0])
        if any(len(g) != d for g in groups):
            raise ShapeError("all color groups must have the same size")
        _check_size(d, n)
        for g in groups:
            for form in g:
                if form.field != field:
                    raise ShapeError("form field differs from cage field")
                if form.num_vars != n + 1:
                    raise ShapeError(
                        f"forms must have {n + 1} coordinates for n={n}")
        self.field = field
        self.groups = groups
        self.n = n
        self.d = d
        self.attempts = attempts
        self._report = None
        self._keys = None
        self._nodes = None
        self._differentials = None

    # -- validation and node access -------------------------------------

    def validate(self) -> ValidationReport:
        """Certify transversality, distinctness, and incidence exactness.

        The report lists one failure per offending index tuple; nodes become
        available only after a fully clean run.  Degenerate tuples and
        coincident nodes come first, in lexicographic index order, then
        incidence failures in node order.

        Nodes are found one line at a time.  The d nodes (i_1, ..., i_(n-1),
        *) lie on the kernel of their first n-1 forms, so one kernel_basis
        per line, d^(n-1) in all, serves d nodes; for n = 1 the line is all
        of P^1, the kernel of a zero row, and its basis is the identity.
        Let the line's kernel have dimension k and let l be a last-color
        form.  The tuple's kernel is the part of the line's kernel where l
        vanishes, of dimension k - 1 when l is nonzero on some basis vector
        and k otherwise; anything but 1 is a degenerate tuple.  When k = 2
        with basis u, v and l is nonzero on the line, the node is
        l(v) u - l(u) v: it is nonzero since u and v are independent and
        l(u), l(v) are not both zero, and l vanishes there by construction.
        So the sweep evaluates only the last color at u and v.  Zero tests
        do not change when a vector is scaled, so over Q every form and
        every basis vector is scaled to an integer vector by
        linalg._prepared and the work runs on ints; over Q[t]/(m) the same
        code runs on field elements.  Each node is keyed once, by
        _point_key: over Q linalg.primitive of its integer vector (gcd 1,
        last nonzero entry positive), the one representative of its
        projective point among integer vectors; over Q[t]/(m)
        canonical_point.  A key seen before is reported as a coincident
        node.  A valid cage keeps the keys and nothing else: nodes() and
        _node_differentials derive the points and the node differentials
        from them when first asked.

        Incidence is one unit test per value.  The forms indexing a node
        need none: kernel_basis has checked that the first n-1 vanish on the
        line, and the last vanishes at the node by construction.  Every
        other form's value at the node must be nonzero, and the Lemma in
        verify_supra_interpolation's docstring needs it a unit: over
        Q[t]/(m) with m reducible a nonzero value can be a zero divisor,
        zero in one factor of Q[t]/(m) and not in another, and the cage
        would pass in one factor and fail in the other.
        _prove_off_hyperplane tests each such value once, at the node's key:
        over Q an integer product, nonzero exactly when it is a unit; over
        Q[t]/(m) a nonzero residue at every root of the split prime proves
        it a unit, and only a value whose residue vanishes somewhere is
        computed exactly.  A zero value is an incidence failure.  A nonzero
        one is inverted once nothing has failed, which raises
        ReducibleModulusError on a zero divisor.  kernel_basis inverts its
        pivots and canonical_point the node's last nonzero entry, so a cage
        that passes is valid in every factor, with the images of the same
        nodes.  Every failure reported holds in every factor alike.

        Over Q a sweep with no failure already proves incidence, so the
        test runs only after a failure, to list the incidences.  Suppose
        node I lay on L_{j,k} with k != I_j, and let I' be I with k in
        place of I_j.  Node I lies on every form of I', so I' is either
        degenerate or has node I as its node, and the sweep reports a
        degenerate tuple or a coincident node either way.  Every nonzero
        rational is a unit.  Over Q[t]/(m) the test always runs, since a
        nonzero value there may still be a zero divisor.
        """
        if self._report is not None:
            return self._report
        field, n, d = self.field, self.n, self.d

        def scaled(vector):
            return _prepared(field, vector)[1]
        forms = [[scaled(form.coeffs) for form in group]
                 for group in self.groups]
        failures: list[ValidationFailure] = []
        seen: dict[tuple, Index] = {}
        for head in all_indices(d, n - 1):
            # for n = 1 no form cuts the line; a zero row stands in for none
            rows = [self.groups[j][head[j] - 1].coeffs
                    for j in range(n - 1)] or [[field.zero()] * 2]
            line_basis = tuple(scaled(v) for v in
                               kernel_basis(Matrix(field, rows)).vectors)
            for i, form in enumerate(forms[-1], start=1):
                index = head + (i,)
                on_line = [dot(form, b) for b in line_basis]
                dim = len(line_basis) - (1 if any(on_line) else 0)
                if dim != 1:
                    failures.append(ValidationFailure(
                        "degenerate-tuple", index,
                        f"hyperplane tuple meets in a {dim}-dimensional "
                        "solution space, expected a single point"))
                    continue
                (u, v), (lu, lv) = line_basis, on_line
                key = _point_key(field, [lv * x - lu * y
                                         for x, y in zip(u, v)])
                if key in seen:
                    failures.append(ValidationFailure(
                        "coincident-nodes", index,
                        f"node coincides with node {seen[key]}"))
                    continue
                seen[key] = index
        keys = {index: key for key, index in seen.items()}
        if failures or field.kind != "rationals":
            _prove_off_hyperplane(field, forms, keys, failures)
        report = ValidationReport(not failures, len(seen), tuple(failures))
        self._report = report
        if report.valid:
            self._keys = keys
        return report

    def _node_differentials(self) -> dict[Index, tuple]:
        """Node index -> (D, rows): a positive D and the n chart-local rows
        of D D_p, D_p the differential of the n group products at the node
        p with index I, whose row j is c_j L_{j,I_j} with its chart column
        dropped, c_j the product of L_{j,k}(p) over k != I_j.  The chart is
        linalg._chart of the key, the position of p's trailing 1.

        The table is built for every node on the first call, from the keys
        validate() kept.  Every form L_{j,k} is scaled by linalg._prepared
        to the row A_{j,k} = s_{j,k} L_{j,k}, and the key is a vector w
        with w_c, its entry at the chart c, nonzero and p = w / w_c.  So
        L_{j,k}(p) = A_{j,k}(w) / (s_{j,k} w_c), and with C_j the product
        of the dots A_{j,k}(w) over k != I_j and S_j the product of the
        s_{j,k} over all k, c_j L_{j,I_j} = C_j A_{j,I_j} / (w_c^(d-1) S_j).
        Taking D = w_c^(d-1) T, T the lcm of the S_j, row j is
        C_j (T / S_j) A_{j,I_j}, with no gcd and no division.  Over Q the
        rows A_{j,k} and the key are integer vectors, w_c > 0, and the
        rows are ints.  Over Q[t]/(m) every scale s_{j,k} is 1, A_{j,k} is
        L_{j,k} and the key is p itself, so w_c, T and D are 1 and row j
        is c_j L_{j,I_j} in field elements, c_j a product of field dots,
        with no inverse.

        inscribe builds its rows on the table as it is: the products of the
        rows with one linalg._prepared tangent vector, or their combination
        by one prepared lambda row.  Each is the same row built on D_p times
        D and the prepared vector's scale, a nonzero rational, which keeps
        its kernel and its RREF; so linalg._kernel of those rows gives the
        basis kernel_basis gives for the rows built on D_p, entry for entry,
        and only node_differentials divides by D.  validate() does not
        build the table, as the checks that visit no node never ask for it.
        """
        self._require_valid()
        if self._differentials is None:
            field, d = self.field, self.d
            forms = [[_prepared(field, f.coeffs) for f in group]
                     for group in self.groups]
            totals = [prod(s for s, _ in group) for group in forms]
            scale = lcm(*totals)
            table = {}
            for index, key in self._keys.items():
                chart = _chart(key)
                lead = key[chart] ** (d - 1) * scale
                rows = []
                for j, hit in enumerate(index):
                    c = prod((dot(f, key) for k, (_, f) in
                              enumerate(forms[j], start=1) if k != hit),
                             start=scale // totals[j])
                    rows.append(tuple(c * a for i, a in
                                      enumerate(forms[j][hit - 1][1])
                                      if i != chart))
                table[index] = (lead, tuple(rows))
            self._differentials = table
        return self._differentials

    def _require_valid(self):
        if self._report is None:
            raise MustValidateError("call validate() before using nodes")
        if not self._report.valid:
            raise MustValidateError("cage failed validation")

    def _node_table(self) -> dict[Index, Node]:
        """Node index -> Node, built from the keys on the first call: a
        point is its key divided by the key's entry at its chart
        (linalg._chart, linalg._divided), which over Q[t]/(m) is one: the
        key is the point."""
        self._require_valid()
        if self._nodes is None:
            field, nodes = self.field, {}
            for index, key in self._keys.items():
                nodes[index] = Node(index, tuple(
                    _divided(field, key, key[_chart(key)])))
            self._nodes = nodes
        return self._nodes

    def nodes(self) -> tuple[Node, ...]:
        """All d^n nodes in lexicographic index order."""
        return tuple(self._node_table().values())

    def node(self, index) -> Node:
        try:
            return self._node_table()[tuple(index)]
        except KeyError:
            raise KeyError(f"no node with index {tuple(index)}") from None

    def nodes_for(self, selection: NodeSelection) -> tuple[Node, ...]:
        nodes = self._node_table()
        return tuple(nodes[i] for i in selection.indices)

    def _key_table(self) -> dict[Index, tuple]:
        """Node index -> key as validate() keyed it, in lexicographic index
        order: over Q the primitive integer vector, over Q[t]/(m) the
        point."""
        self._require_valid()
        return self._keys

    # -- distinguished polynomials ---------------------------------------

    def group_polynomial(self, color: int) -> HomogPoly:
        """Product of the color's d hyperplane forms (colors counted from 0)."""
        if not 0 <= color < self.n:
            raise ShapeError(f"no color {color}")
        return product_of_linear_forms(self.groups[color])

    def group_polynomials(self) -> tuple[HomogPoly, ...]:
        return tuple(self.group_polynomial(j) for j in range(self.n))

    def pencil(self, lambdas: Sequence) -> HomogPoly:
        """The combination sum(lambda_j * group_polynomial(j))."""
        if len(lambdas) != self.n:
            raise ShapeError(f"need {self.n} pencil coefficients")
        lams = [self.field.coerce(c) for c in lambdas]
        if all(c.is_zero() for c in lams):
            raise ValueError("degenerate pencil: all coefficients zero")
        acc = HomogPoly.zero(self.field, self.n + 1, self.d)
        for lam, poly in zip(lams, self.group_polynomials()):
            if not lam.is_zero():
                acc = acc + poly.scale(lam)
        return acc

    def summary(self) -> dict:
        return {"n": self.n, "d": self.d, "field": self.field.label,
                "nodes": self.d ** self.n}

    def __repr__(self):
        return f"Cage(n={self.n}, d={self.d}, field={self.field.label})"


# -- constructors ------------------------------------------------------------

def validated(cage: Cage, message: str) -> Cage:
    """The cage itself once validate() passes; otherwise CageValidationError
    with the message and the failed report."""
    report = cage.validate()
    if not report.valid:
        raise CageValidationError(message, report)
    return cage


def axis_cage(field: FieldDescriptor, points: Sequence[Sequence]) -> Cage:
    """Axis-aligned cage through a grid of affine points.

    points is a list of d affine points in n coordinates; color j consists of
    the hyperplanes x_j = points[i][j].  Each coordinate must take d distinct
    values, otherwise the grid is degenerate.
    """
    if not points:
        raise ValueError("need at least one grid point")
    d = len(points)
    n = len(points[0])
    if any(len(p) != n for p in points):
        raise ShapeError("grid points have inconsistent arity")
    values = [[field.coerce(p[j]) for p in points] for j in range(n)]
    for j in range(n):
        if len(set(values[j])) != d:
            raise ValueError(
                f"coordinate {j + 1} repeats a value; grid is not in "
                "general position")
    zero, one = field.zero(), field.one()
    groups = []
    for j in range(n):
        forms = []
        for i in range(d):
            coeffs = [zero] * (n + 1)
            coeffs[j] = one
            coeffs[n] = -values[j][i]
            forms.append(LinearForm(field, coeffs))
        groups.append(forms)
    return validated(Cage(field, groups), "axis cage failed validation")


def _has_proportional_pair(vectors: Sequence[Sequence[int]]) -> bool:
    """Whether two of the nonzero integer vectors are proportional.

    Such a pair of forms fails validation wherever they sit: in one color
    they are one hyperplane, so the tuples through either give coincident
    nodes or are degenerate; in two colors every tuple holding both has
    rank below n and is degenerate.
    """
    keys = [primitive(v) for v in vectors]
    return len(set(keys)) < len(keys)


def random_cage(seed: int, d: int, n: int,
                field: Optional[FieldDescriptor] = None) -> Cage:
    """Seeded random cage with small integer coefficients.

    Resamples whole candidates until validation passes; the accepted cage
    records how many attempts were used.  The same seed always yields the
    same cage.  A candidate with two proportional forms would fail
    validation, so it is rejected without running it.  Cages of more than
    256 nodes get fewer than MAX_ATTEMPTS attempts, at least one, so the
    nodes validated stay within MAX_ATTEMPTS * 256.
    """
    _check_size(d, n)
    if field is None:
        field = FieldDescriptor.rationals()
    rng = random.Random(seed)
    cap = min(MAX_ATTEMPTS, max(1, MAX_ATTEMPTS * 256 // d ** n))
    for attempt in range(1, cap + 1):
        drawn = []
        for _ in range(n * d):
            while True:
                coeffs = [rng.randint(-9, 9) for _ in range(n + 1)]
                if any(coeffs):
                    break
            drawn.append(coeffs)
        if _has_proportional_pair(drawn):
            continue
        groups = [[LinearForm(field, c) for c in drawn[j * d:(j + 1) * d]]
                  for j in range(n)]
        cage = Cage(field, groups, attempts=attempt)
        if cage.validate().valid:
            return cage
    raise ValueError(f"no valid cage found in {cap} attempts "
                     f"(seed {seed}, d={d}, n={n})")
