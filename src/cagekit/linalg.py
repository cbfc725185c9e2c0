"""Dense exact linear algebra over a FieldDescriptor.

Gaussian elimination with the first nonzero entry in column order as pivot,
so every result (rank, kernel basis, solutions) is deterministic.  Kernel
bases come out of the reduced echelon form in the standard free-column
convention, which makes them canonical for a fixed input matrix.

One modular core, modular_pivots, eliminates a rational matrix modulo the
prime p = 2^31 - 1 and returns its pivot rows: their number is the rank mod
p, a lower bound for the rank over Q, and the rows themselves are linearly
independent over Q.  It declines over extension fields and when p divides a
denominator.  rank takes a rank mod p equal to min(rows, cols) as proof of
the rank over Q; any other outcome falls back to exact elimination over the
field itself.  verify.hilbert_table pairs the same core with an upper bound
to prove rank-deficient ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ShapeError
from .field import FieldDescriptor, FieldElement

Vector = tuple[FieldElement, ...]


class Matrix:
    """Immutable dense matrix; entries all live in the same field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldDescriptor, entries):
        rows = tuple(tuple(field.coerce(e) for e in row) for row in entries)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ShapeError("ragged rows")
        else:
            width = 0
        self.field = field
        self.rows = len(rows)
        self.cols = width
        self.entries = rows

    @classmethod
    def identity(cls, field: FieldDescriptor, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)]
                           for i in range(n)])

    def transpose(self) -> "Matrix":
        return Matrix(self.field,
                      [[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def matvec(self, v: Sequence[FieldElement]) -> Vector:
        if len(v) != self.cols:
            raise ShapeError(f"matvec: {self.cols} columns vs {len(v)} entries")
        out = []
        for row in self.entries:
            acc = self.field.zero()
            for a, x in zip(row, v):
                if not a.is_zero() and not (isinstance(x, FieldElement) and x.is_zero()):
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field.label})"


@dataclass(frozen=True)
class SubspaceBasis:
    """Linearly independent spanning vectors of a subspace of F^ambient_dim."""

    ambient_dim: int
    vectors: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


def _rref(matrix: Matrix):
    """Reduced row echelon form.  Returns (rows as lists, pivot column list)."""
    rows = [list(r) for r in matrix.entries]
    pivots: list[int] = []
    pivot_row = 0
    for col in range(matrix.cols):
        hit = None
        for r in range(pivot_row, len(rows)):
            if not rows[r][col].is_zero():
                hit = r
                break
        if hit is None:
            continue
        rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        inv = rows[pivot_row][col].inverse()
        rows[pivot_row] = [inv * e for e in rows[pivot_row]]
        for r in range(len(rows)):
            if r == pivot_row:
                continue
            factor = rows[r][col]
            if factor.is_zero():
                continue
            prow = rows[pivot_row]
            rows[r] = [e - factor * p for e, p in zip(rows[r], prow)]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows, pivots


PRIME = 2 ** 31 - 1


def modular_pivots(field: FieldDescriptor,
                   rows: Sequence[Sequence[FieldElement]]
                   ) -> Optional[list[int]]:
    """Indices of the rows that Gaussian elimination mod PRIME picks as
    pivots, in the order picked; None when it declines.

    Their number is the rank mod PRIME, and those rows are linearly
    independent mod PRIME.  It declines over an extension field, and when
    PRIME divides the denominator of some entry; otherwise every entry is
    p-integral, and reduction mod PRIME is a ring homomorphism on them.
    """
    if field.degree != 1:
        return None
    try:
        live = [(i, [e.coeffs[0].numerator
                     * pow(e.coeffs[0].denominator, -1, PRIME) % PRIME
                     for e in row])
                for i, row in enumerate(rows)]
    except ValueError:          # no inverse: PRIME divides a denominator
        return None
    pivots = []
    # each pass eliminates the leading column and drops it from every row
    while live and live[0][1]:
        hit = next((i for i, (_, r) in enumerate(live) if r[0]), None)
        if hit is None:
            live = [(i, r[1:]) for i, r in live]
            continue
        index, pivot = live.pop(hit)
        inv, tail = pow(pivot[0], -1, PRIME), pivot[1:]
        rest = []
        for i, r in live:
            f = r[0] * inv % PRIME
            rest.append((i, [(a - f * b) % PRIME for a, b in zip(r[1:], tail)]
                         if f else r[1:]))
        live = rest
        pivots.append(index)
    return pivots


def rank(matrix: Matrix) -> int:
    """Rank over the matrix's field.

    Over Q the rank mod PRIME is computed first, by modular_pivots.  Every
    entry is then p-integral, so reduction mod p is a ring homomorphism on
    the entries and maps each minor to the same minor of the reduced
    matrix.  An r x r minor that is nonzero mod p is therefore nonzero over
    Q, and the rank over Q is at least the rank mod p.  No rank exceeds
    min(rows, cols), so a rank mod p equal to min(rows, cols) is the rank
    over Q.  Otherwise the rank comes from exact elimination.
    """
    pivots = modular_pivots(matrix.field, matrix.entries)
    full = min(matrix.rows, matrix.cols)
    if pivots is not None and len(pivots) == full:
        return full
    _, pivots = _rref(matrix)
    return len(pivots)


def kernel_basis(matrix: Matrix) -> SubspaceBasis:
    """Canonical basis of the right kernel, one vector per free column."""
    rows, pivots = _rref(matrix)
    field = matrix.field
    zero, one = field.zero(), field.one()
    pivot_set = set(pivots)
    free_cols = [c for c in range(matrix.cols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        vec = [zero] * matrix.cols
        vec[f] = one
        for r, pc in enumerate(pivots):
            coeff = rows[r][f]
            if not coeff.is_zero():
                vec[pc] = -coeff
        basis.append(tuple(vec))
    for vec in basis:
        if not all(e.is_zero() for e in matrix.matvec(vec)):
            raise RuntimeError("kernel vector check failed")
    return SubspaceBasis(matrix.cols, tuple(basis))


def solve(matrix: Matrix, rhs: Sequence[FieldElement]) -> Optional[Vector]:
    """One solution of matrix @ x = rhs with free variables set to zero.

    Returns None when the system is inconsistent.
    """
    if len(rhs) != matrix.rows:
        raise ShapeError(f"solve: {matrix.rows} rows vs {len(rhs)} rhs entries")
    field = matrix.field
    rhs = [field.coerce(e) for e in rhs]
    augmented = Matrix(field, [list(r) + [b]
                               for r, b in zip(matrix.entries, rhs)]
                       if matrix.rows else [])
    if matrix.rows == 0:
        return tuple([field.zero()] * matrix.cols)
    rows, pivots = _rref(augmented)
    if pivots and pivots[-1] == matrix.cols:
        return None
    solution = [field.zero()] * matrix.cols
    for r, pc in enumerate(pivots):
        solution[pc] = rows[r][matrix.cols]
    return tuple(solution)


def invert(matrix: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = matrix.rows
    if matrix.cols != n:
        raise ShapeError("invert: matrix is not square")
    field = matrix.field
    ident = Matrix.identity(field, n)
    augmented = Matrix(field, [list(r) + list(i)
                               for r, i in zip(matrix.entries, ident.entries)])
    rows, pivots = _rref(augmented)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise ValueError("singular matrix")
    return Matrix(field, [row[n:] for row in rows[:n]])


def in_span(vector: Sequence[FieldElement], basis: SubspaceBasis) -> bool:
    """Exact membership of vector in the span of the basis vectors."""
    if len(vector) != basis.ambient_dim:
        raise ShapeError(
            f"in_span: ambient {basis.ambient_dim} vs vector {len(vector)}")
    if not basis.vectors:
        return all(_is_zero_entry(e) for e in vector)
    field = basis.vectors[0][0].field
    columns = Matrix(field, [[basis.vectors[k][i]
                              for k in range(len(basis.vectors))]
                             for i in range(basis.ambient_dim)])
    return solve(columns, list(vector)) is not None


def span_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Mutual membership: the two bases span the same subspace."""
    if a.ambient_dim != b.ambient_dim:
        raise ShapeError("span_equal: ambient dimensions differ")
    if a.dim != b.dim:
        return False
    return (all(in_span(v, b) for v in a.vectors)
            and all(in_span(v, a) for v in b.vectors))


def _is_zero_entry(e) -> bool:
    return e.is_zero() if isinstance(e, FieldElement) else e == 0
