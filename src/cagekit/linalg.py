"""Dense exact linear algebra over a FieldDescriptor.

Gauss-Jordan elimination with the first nonzero entry in column order as
pivot, so every result (rank, kernel basis, solutions) is deterministic.
Kernel bases come out of the reduced echelon form in the standard
free-column convention, which makes them canonical for a fixed input matrix.

Over Q the elimination runs on ints.  _prepared scales each row by the
lcm of its denominators, which changes neither the row space nor which
entries are zero.  _fraction_free then runs fraction-free Gauss-Jordan
elimination (Bareiss 1968, in the Gauss-Jordan form of Nakos, Turner and
Williams 1997) with the same pivot rule.  A step with pivot entry piv in
column c replaces every other row by (piv * row - row[c] * pivot_row) //
prev, where prev is the previous step's pivot entry, 1 at the start.  Over
Q[t]/(m), _gauss_jordan eliminates field elements, normalizing each pivot
row, so a reducible modulus surfaces at an inversion.

Why the integer core is exact and gives the same RREF.  Let A be the
scaled matrix with its rows in their final order, let R and C be the first
k pivot rows and columns, and D_k = det A[R,C], with D_0 = 1.  After k
steps the field elimination holds A[i,:] - A[i,C] A[R,C]^-1 A[R,:] in a
non-pivot row i, and row m of A[R,C]^-1 A[R,:] in the pivot row of column
c_m.  By induction the integer core holds D_k times the same rows.  Let
x = D_(k-1) x' be a row and q = D_(k-1) q' the next pivot row, with
entry q'[c] in the pivot column c.  The step gives (piv x - x[c] q) /
D_(k-1) = D_(k-1) q'[c] (x' - x'[c] q' / q'[c]), and the pivot row stays
D_(k-1) q'[c] (q' / q'[c]).  Both are D_k times the field elimination's
row, because q'[c] is an entry of the Schur complement, D_k / D_(k-1).
As D_k is nonzero, both eliminations see the same zeros, so they pick the
same pivots and swap the same rows.  The integer rows are minors of A:
entry j of the non-pivot row i is det A[R+i, C+j] by the Schur complement
formula, and entry j of the pivot row of c_m is det A[R,C] with column
c_m replaced by column j, by Cramer's rule.  So every // divides exactly
(Sylvester's identity), and every entry is a minor of order at most k + 1,
which the Hadamard bound limits to the product of its rows' euclidean
norms.  At the end the non-pivot rows are zero and the pivot rows hold D
times the RREF, where D = det A[R,C] is the pivot entry of every pivot
row; dividing by D gives the field elimination's RREF entry for entry.
Callers build kernel vectors, solutions and inverses on the ints and
divide by D only where they return field elements; kernel_basis checks
M v = 0 against the scaled rows on ints.

Every row enters the elimination through one preparation: _prepared
turns a vector of field elements into a row and its scale, over Q the lcm
s of the elements' denominators and the ints s times each element, read
off their integer numerators and denominators, over Q[t]/(m) the elements
and 1.  Scaling a row by a nonzero rational changes neither the rank nor
the kernel nor the RREF, so any integer multiple of each row will do, and
_divided turns D times an RREF entry back into a field element, over Q
with one gcd per entry.  On prepared rows there is one rank entry, _rank,
and one kernel entry that returns field elements, _kernel; rank and
kernel_basis run them on the prepared rows of a Matrix, and verify and
inscribe run them on rows they build themselves.  _exact_kernel is the
kernel left as D times the canonical basis, ints over Q and elements over
Q[t]/(m), checked on the rows it started from.
A point set enters as primitive integer vectors (gcd 1, last nonzero entry
positive), the unique representative of each rational projective point,
so equal points are equal vectors.  Scaling a point by lambda != 0
multiplies its row of degree-k monomial values by lambda^k, which again
changes neither the rank nor the kernel of the evaluation matrix, and
every value is an int.  With no denominator left, reduction mod p never
declines.

Full ranks are certified from residues modulo a prime.  A residue map sends
each p-integral element (every coefficient's denominator prime to p) to
F_p.  Over Q there is one, reduction modulo PRIME = 2^24 - 17 = 16777199,
which _pivots_mod applies to integer rows directly; PRIME is small enough
that residue arithmetic fits a 64-bit word.  Over Q[t]/(m) the modulus
gets, once, the first prime p <= PRIME, scanning down through at most
SPLIT_SCAN primes, at which every coefficient of m is p-integral and m mod
p divides x^p - x: then m mod p is squarefree and splits into deg m
distinct linear factors.  The scan tests primality by trial division, which
for p < 2^24 needs no divisor past 2^12.  Each root r of m mod p, found by
Cantor-Zassenhaus splitting, gives the map c_0 + c_1 t + ... to
c_0 + c_1 r + ... mod p.  When the scan finds no prime, every rank over
that field is exact.

Why a full rank at every root is a proof.  The p-integral elements form a
ring, Z_(p)[t]/(m) since m is monic and p-integral, and each residue map is
a ring homomorphism from it onto F_p: the
composite of Z_(p)[t]/(m) -> F_p[t]/(m mod p) and t -> r, well defined
since m(r) = 0 mod p.  A minor of a p-integral matrix is a polynomial in
its entries, so it maps to the same minor of the residue matrix, and a
minor that is nonzero at a root is nonzero before reduction.  Over Q that
already proves the rank is at least the rank mod p.  Over Q[t]/(m), write
m = m_1 ... m_s with monic irreducible m_i over Q; by Gauss's lemma each
m_i is p-integral, and since m mod p is squarefree the m_i are distinct, so
Q[t]/(m) is the product of the fields Q[t]/(m_i).  Each root r of m mod p
is a root of exactly one m_i mod p, and the map at r factors through
Q[t]/(m_i): a minor nonzero at r is nonzero in that factor.  Every m_i mod
p divides the split m mod p, so every factor owns a root.  Hence a rank
mod p equal to min(rows, cols) at every root is that full rank in every
factor, however m factors; for irreducible m it is the rank over the field.
Every other outcome, p dividing a denominator included, falls back to
exact elimination over the field itself, where a reducible modulus still
surfaces as ReducibleModulusError, as FieldDescriptor promises.

_images is the one place that reduces: it gives p and, at every residue
map, the images of prepared vectors as ints, over Q the integer vectors
themselves and over Q[t]/(m) each coefficient converted mod p once and
evaluated at every root; it gives no map when p divides a denominator.
_rank eliminates the images of its rows and returns a full rank at every
map, and anything else takes the pivots of exact elimination.  verify
takes the images of points instead, evaluates monomials at them, and pairs
the rank mod p, a lower bound, with an upper bound to prove rank-deficient
ranks.

Where that upper bound is missing, the kernel is a certificate too.
_kernel_mod takes the r pivot rows of _pivots_mod, which are independent
over Q, eliminates them modulo q = 2^89 - 1, back-substitutes one vector
per free column, and reconstructs each as integers over a running common
denominator, with numerators and denominator below 2^44 (Wang 1981).  It
returns the vectors only if every one vanishes on every row in exact
integer arithmetic.  Each is nonzero at its own free column and zero at the
others, so they are cols - r independent kernel vectors: the rank is at
most r, which meets the lower bound, and they are a basis of the kernel.
The modulus decides only whether vectors are found, never whether they
hold, so q need not be prime: a pivot without an inverse mod q declines,
as a failed check does, and the exact kernel runs instead.  q fits in three
30-bit CPython digits, as a 61-bit modulus would, yet 2 (2^44 - 1)^2 < q
lets the bound be 2^44 where a 61-bit modulus allows 2^30.  On the nodes
of small random cages the primitive kernel vectors take at most a few tens
of bits, where D times the RREF takes hundreds.

Every elimination mod p runs in _pivots_mod on packed rows: each row is one
nonnegative int of 64-bit slots, one per column, packed and unpacked
through array("Q"), so every slot is one machine word.  A row update is one
multiply-add of whole ints, r + (p - f) * tail, and the eliminated column
leaves with a shift by 64; only a pivot row has its slots reduced mod p,
once.  Each update adds at most (p - 1)^2 to a slot and a row takes at most
one update per pivot, so at most m = min(rows, cols) updates, and every
slot stays below p + m (p - 1)^2 < (m + 1) p^2 <= 2^64 whenever
2 bitlen(p) + bitlen(m + 1) <= 64.  At PRIME, of 24 bits, that holds for
m <= 65534; past the bound _pivots_mod raises ValueError, and _rank falls
back to exact elimination as it does when p divides a denominator.  So no
carry crosses a slot, and the slots stay congruent to the entries of
elimination over F_p.  The pivots are the ones that elimination picks, as
_pivots_mod's docstring proves.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from math import gcd, isqrt, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import ShapeError
from .field import FieldDescriptor, FieldElement, _integer_element

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


def _prepared(field: FieldDescriptor,
              vector: Sequence[FieldElement]) -> tuple:
    """A row for the elimination and its scale s: over Q, s is the lcm of
    the denominators of the elements and the row is s times each of them,
    as ints, which changes neither the kernel nor the RREF; over Q[t]/(m)
    the row is a list of the elements themselves and s is 1."""
    if field.kind != "rationals":
        return 1, list(vector)
    scale = 1
    for e in vector:
        if e._den != 1:
            scale = lcm(scale, e._den)
    return scale, [e._num[0] * (scale // e._den) for e in vector]


def _chart(vector: Sequence) -> int:
    """The chart of a projective point: the position of the last nonzero
    entry of a vector of ints or field elements, the entry its canonical
    representative sets to 1."""
    for i in range(len(vector) - 1, -1, -1):
        if vector[i]:
            return i
    raise ValueError("zero vector has no projective normalization")


def primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """The primitive multiple of a nonzero integer vector: gcd 1 and last
    nonzero entry positive, the same for all its nonzero rational
    multiples."""
    g = gcd(*ints)
    if ints[_chart(ints)] < 0:
        g = -g
    return tuple(x // g for x in ints)


def dot(row: Sequence, vector: Sequence):
    """sum(row[k] * vector[k]), skipping zero terms; ints or FieldElements."""
    acc = 0
    for c, x in zip(row, vector):
        if c and x:
            acc = acc + c * x
    return acc


def _scaled_rows(matrix: Matrix) -> tuple:
    """The rows the elimination works on, each row _prepared."""
    field = matrix.field
    return tuple(_prepared(field, row)[1] for row in matrix.entries)


def _rref(matrix: Matrix):
    """_eliminate of the matrix's scaled rows."""
    return _eliminate(matrix.field, _scaled_rows(matrix))


def _eliminate(field: FieldDescriptor, rows: Sequence[Sequence]):
    """The pivot rows of D times the reduced row echelon form of prepared
    rows, and the pivot columns: integer rows over Q go to _fraction_free,
    rows of elements over Q[t]/(m) to _gauss_jordan.  D, the pivot entry of
    every pivot row, is an int over Q and 1 over Q[t]/(m).  The module
    docstring proves that both cores give the same RREF."""
    # the cores replace and reorder rows, never a row's entries
    rows = list(rows)
    if field.kind == "rationals":
        return _fraction_free(rows)
    return _gauss_jordan(rows)


def _fraction_free(rows: list[list[int]]):
    """Fraction-free Gauss-Jordan elimination of integer rows: the pivot
    rows, which hold D times the RREF, and the pivot columns."""
    pivots: list[int] = []
    prev, r = 1, 0
    for col in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        pivot_row = rows[r]
        piv = pivot_row[col]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[col]
            if f:
                rows[i] = [(piv * a - f * b) // prev
                           for a, b in zip(row, pivot_row)]
            elif piv != prev:
                rows[i] = [piv * a // prev for a in row]
        pivots.append(col)
        prev, r = piv, r + 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _gauss_jordan(rows: list[list[FieldElement]]):
    """Gauss-Jordan elimination over a field, normalizing each pivot row:
    the pivot rows of the RREF and the pivot columns.  Entries are tested
    by truth value, since a row may hold the int 0 that dot returns when
    it skips every term."""
    pivots: list[int] = []
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = pivot_row = [inv * e for e in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f:
                rows[i] = [e - f * p for e, p in zip(row, pivot_row)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _lead(rows: list[list], pivots: list[int]):
    """D for the rows of _rref: their shared pivot entry, 1 without one."""
    return rows[0][pivots[0]] if pivots else 1


def _divided(field: FieldDescriptor, values: Sequence, lead) -> list:
    """values / lead as field elements, for values scaled by lead: over Q
    ints over a nonzero int, each element put in lowest terms with one gcd
    and the sign on its numerator; over Q[t]/(m), where lead is always
    one, the values themselves."""
    if field.kind != "rationals":
        return [field.coerce(x) for x in values]
    if lead < 0:
        values, lead = [-x for x in values], -lead
    out = []
    for x in values:
        g = gcd(x, lead)
        out.append(_integer_element(field, (x // g,), lead // g))
    return out


PRIME = 2 ** 24 - 17
SPLIT_SCAN = 200        # primes an extension modulus may try before declining
_SPLITS: dict = {}      # field -> _split_prime(field.min_poly)
_MASK = (1 << 64) - 1   # the lowest slot of a packed row
# array("Q") is native-endian; packed ints are read little-endian, so a
# big-endian host swaps each word
_SWAP = sys.byteorder == "big"
if array("Q").itemsize != 8:
    raise ImportError("cagekit.linalg needs 8-byte array('Q') items")


def _mod_p(e: FieldElement, p: int) -> list[int]:
    """The coefficients of e mod p, its integer numerators times the
    inverse of their common denominator; ValueError when p divides it,
    which for a prime p is when p divides a coefficient's denominator."""
    inv = pow(e._den, -1, p)
    return [x * inv % p for x in e._num]


def _images(field: FieldDescriptor, vectors: Sequence[Sequence]):
    """The prime p and, for each residue map of the field, the images of
    _prepared vectors, as lists of ints: over Q the integer vectors
    themselves at the one map mod PRIME, over Q[t]/(m) each coefficient
    converted mod p once (_mod_p) and evaluated at every root, the ints 0
    and 1 of _kernel_vectors included.  No map when the field has no split
    prime or p divides a denominator."""
    if field.kind == "rationals":
        return PRIME, [vectors]
    p, roots = _residue_maps(field)
    try:
        coeffs = [[_mod_p(field.coerce(e), p) for e in v] for v in vectors]
    except ValueError:          # p divides a denominator
        return p, []
    return p, [[[dot(c, powers) % p for c in v] for v in coeffs]
               for powers in roots]


def _pivots_mod(rows: Sequence[Sequence[int]], p: int) -> list[int]:
    """Pivot row indices of Gaussian elimination over F_p, p prime: each
    column takes the first live row, in input order, whose entry there is
    nonzero mod p, and the pivot rows leave the live rows in the order
    picked.  Raises ValueError when 2 bitlen(p) + bitlen(m + 1) > 64, with
    m = min(len(rows), cols).

    Each live row is one nonnegative int of 64-bit slots, slot 0 holding
    the current column.  A row's slots are congruent mod p to its entries
    in elimination over F_p.  Rows enter with every slot reduced below p.
    The leading entry of a row r is (r & mask) % p.  A pivot row is reduced
    slot by slot once, when it is picked.  Every other row r takes f = its
    leading entry over the pivot's, mod p, and becomes
    (r >> 64) + (p - f) * tail, tail being the reduced pivot row without
    its leading slot, or r >> 64 when f = 0: the shift drops the eliminated
    column, and adding p - f times a slot is subtracting f times it mod p.
    No carry crosses a slot.  Every slot is nonnegative, and an update adds
    at most (p - 1)^2 to it, since p - f and every reduced slot are below
    p.  A row is updated at most once per pivot, so at most m times, and
    every slot stays below p + m (p - 1)^2 < (m + 1) p^2 <= 2^64, as
    p < 2^bitlen(p) and m + 1 < 2^bitlen(m + 1).  Hence the int operations
    act slot by slot and pick the same pivots as elimination on lists of
    residues.
    """
    width = len(rows[0]) if rows else 0
    if 2 * p.bit_length() + (min(len(rows), width) + 1).bit_length() > 64:
        raise ValueError("_pivots_mod: 2 bitlen(p) + bitlen(m + 1) exceeds "
                         "64 bits, m = min(rows, cols)")
    live = [(i, _pack(row, p)) for i, row in enumerate(rows)]
    pivots = []
    # each pass eliminates the leading column and drops it from every row
    for col in range(width):
        if not live:
            break
        leads = [(r & _MASK) % p for _, r in live]
        hit = next((k for k, lead in enumerate(leads) if lead), None)
        if hit is None:
            live = [(i, r >> 64) for i, r in live]
            continue
        index, pivot = live.pop(hit)
        inv = pow(leads.pop(hit), -1, p)
        tail = _pack(_slots(pivot >> 64, width - col - 1), p)
        rest = []
        for (i, r), lead in zip(live, leads):
            f = lead * inv % p
            rest.append((i, (r >> 64) + (p - f) * tail if f else r >> 64))
        live = rest
        pivots.append(index)
    return pivots


def _kernel_mod(rows: Sequence[Sequence[int]], picked: Sequence[int],
                cols: int) -> Optional[list[list[int]]]:
    """An integer basis of the kernel of integer rows with cols columns,
    given the indices picked of rows independent over Q, such as the pivot
    rows of _pivots_mod, or None: the vectors come from the picked rows
    modulo q = 2^89 - 1, and are returned only if every one vanishes on
    every row of rows in exact integer arithmetic.

    Forward elimination of the picked rows mod q scales each pivot row to 1
    at its pivot and updates only the columns past it.  Unless every picked
    row gives a pivot, the answer is None.  The vector of a free column f
    is 1 at f, 0 at the other free columns, and, by back-substitution from
    the last pivot up, minus the pivot row's dot product with the entries
    past its pivot at each pivot column; _reconstructed turns it into
    integers or declines.

    Each vector returned is d > 0 at its free column and 0 at the other
    free columns, so they are independent, and the exact check puts them in
    the kernel: there are cols - len(picked) of them, as many as the rank
    of the picked rows allows, so they are a basis.  That holds whatever q
    is and whatever the reconstruction found, so q need not be prime: a
    pivot without an inverse mod q declines.
    """
    q = (1 << 89) - 1
    live = [[x % q for x in rows[i]] for i in picked]
    echelon = []        # (pivot column, the scaled pivot row past it)
    for c in range(cols):
        hit = next((k for k, row in enumerate(live) if row[c]), None)
        if hit is None:
            continue
        row = live.pop(hit)
        try:
            inv = pow(row[c], -1, q)
        except ValueError:          # gcd(row[c], q) > 1
            return None
        tail = [x * inv % q for x in row[c + 1:]]
        for other in live:
            f = other[c]
            if f:
                other[c + 1:] = [(a - f * b) % q
                                 for a, b in zip(other[c + 1:], tail)]
        echelon.append((c, tail))
    if len(echelon) < len(picked):
        return None
    pivot_set = {c for c, _ in echelon}
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        x = [0] * cols
        x[f] = 1
        for pc, tail in reversed(echelon):
            if pc < f:
                x[pc] = -sum(map(mul, tail[:f - pc], x[pc + 1:f + 1])) % q
        vec = _reconstructed(x, q)
        if vec is None:
            return None
        basis.append(vec)
    if any(sum(map(mul, row, vec)) for vec in basis for row in rows):
        return None
    return basis


def _reconstructed(x: Sequence[int], q: int) -> Optional[list[int]]:
    """d times x, lifted entry by entry to (-q/2, q/2), for the running
    common denominator d of x read as fractions a/b mod q with |a| and b
    below 2^44 (Wang 1981), or None when d reaches 2^44.

    d starts at 1.  An entry e is taken as y = e * d mod q; if y lifted is
    below 2^44 in size it is the numerator over d.  Otherwise extended
    Euclid on (q, y), stopped at the first remainder below 2^44, gives
    t * y = remainder mod q, and d becomes d * |t|, which is nonzero.  As
    |a| and b are below 2^44, 2 |a| b < q and such a fraction is unique,
    but the caller's exact check, not uniqueness, makes the result a proof.
    """
    bound = 1 << 44
    d = 1
    for e in x:
        y = e * d % q
        if y < bound or q - y < bound:
            continue
        r0, r1, t0, t1 = q, y, 0, 1
        while r1 >= bound:
            quo = r0 // r1
            r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
        d *= abs(t1)
        if d >= bound:
            return None
    half = q >> 1
    return [y - q if y > half else y for y in (e * d % q for e in x)]


def _pack(values: Sequence[int], p: int) -> int:
    """The residues mod p of values as one int of 64-bit slots, the first
    value in the lowest slot."""
    words = array("Q", [x % p for x in values])
    if _SWAP:
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _slots(packed: int, count: int) -> array:
    """The count 64-bit slots of a packed row, lowest first."""
    words = array("Q")
    words.frombytes(packed.to_bytes(8 * count, "little"))
    if _SWAP:
        words.byteswap()
    return words


def _residue_maps(field: FieldDescriptor):
    """The prime p of an extension field and, for each residue map, the
    residues of 1, t, ..., t^(degree-1); no maps when the scan finds no
    prime."""
    # keyed by the descriptor, whose hash is stored, not by its modulus,
    # whose Fractions would be hashed on every call
    splits = _SPLITS.get(field)
    if splits is None:
        splits = _SPLITS[field] = _split_prime(field.min_poly)
    return splits


def _split_prime(min_poly) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The first prime p <= PRIME, among SPLIT_SCAN, at which the monic
    min_poly is p-integral and divides x^p - x mod p, with the powers of
    its roots; (PRIME, ()) when there is none."""
    n = len(min_poly) - 1
    p, tried = PRIME, 0
    while tried < SPLIT_SCAN:
        if _is_prime(p):
            tried += 1
            if all(c.denominator % p for c in min_poly):
                m = [c.numerator * pow(c.denominator, -1, p) % p
                     for c in min_poly]
                if _poly_powmod([0, 1], p, m, p) == [0, 1]:
                    return p, tuple(tuple(pow(r, k, p) for k in range(n))
                                    for r in sorted(_split_roots(m, p)))
        p -= 2
    return PRIME, ()


def _is_prime(n: int) -> bool:
    """Trial division: a composite n has a factor q with 2 <= q <= isqrt(n).
    _split_prime tests only n <= PRIME < 2^24, so the loop stops below
    4096."""
    return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))


# -- polynomials over F_p: int lists low to high, no trailing zeros ---------

def _poly_divmod(a: list[int], b: list[int], p: int):
    """Quotient and remainder of a by a nonzero b over F_p."""
    r = list(a)
    n = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(r) - n, 0)
    for k in range(len(r) - 1 - n, -1, -1):
        c = r[k + n] % p * inv % p
        if c:
            q[k] = c
            for j, bj in enumerate(b):
                r[k + j] -= c * bj
    return _poly_trim(q), _poly_trim([x % p for x in r[:n]])


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_powmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    """base^e mod m over F_p, left to right: a linear base costs little."""
    result, base = [1], _poly_divmod(base, m, p)[1]
    for bit in bin(e)[2:]:
        result = _poly_mulmod(result, result, m, p)
        if bit == "1":
            result = _poly_mulmod(result, base, m, p)
    return result


def _poly_mulmod(a: list[int], b: list[int], m: list[int], p: int):
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_divmod(prod, m, p)[1]


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p of a nonzero a and b."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _split_roots(f: list[int], p: int) -> list[int]:
    """Roots of a monic f that is a product of distinct linear factors over
    F_p, p odd, by Cantor-Zassenhaus equal-degree splitting.

    For each shift a, the gcd of f and (x + a)^((p-1)/2) - 1 collects the
    roots r with r + a a nonzero square.  Two distinct roots r, s are
    separated by some a in F_p, since the Legendre symbols of (a + r)(a + s)
    sum to -1 over a, so the scan over a stops within p steps; in practice
    it stops within a few.
    """
    if len(f) == 2:
        return [-f[0] % p]
    for a in range(p):
        h = _poly_powmod([a, 1], (p - 1) // 2, f, p) or [0]
        h[0] = (h[0] - 1) % p
        g = _poly_gcd(f, _poly_trim(h), p)
        if 1 < len(g) < len(f):
            return (_split_roots(g, p)
                    + _split_roots(_poly_divmod(f, g, p)[0], p))
    raise RuntimeError("root splitting exhausted F_p")


def rank(matrix: Matrix) -> int:
    """Rank over the matrix's field: _rank of its scaled rows."""
    return _rank(matrix.field, _scaled_rows(matrix))


def _rank(field: FieldDescriptor, rows: Sequence[Sequence]) -> int:
    """Rank over the field of _prepared rows, full rank certified mod p.

    A rank mod p of the _images of the rows equal to min(rows, cols) at
    every residue map is the rank, by the argument in the module
    docstring.  Otherwise, or when there is no map, or past the slot bound
    of _pivots_mod, the rank is the number of pivots of _eliminate, so a
    rank that drops at one root is never claimed full.
    """
    p, images = _images(field, rows)
    full = min(len(rows), len(rows[0]) if rows else 0)
    try:
        if images and all(len(_pivots_mod(image, p)) == full
                          for image in images):
            return full
    except ValueError:          # past the slot bound
        pass
    return len(_eliminate(field, rows)[1])


def kernel_basis(matrix: Matrix) -> SubspaceBasis:
    """Canonical basis of the right kernel, one vector per free column:
    _kernel of the scaled rows."""
    return SubspaceBasis(matrix.cols, _kernel(
        matrix.field, _scaled_rows(matrix), matrix.cols))


def _kernel(field: FieldDescriptor, rows: Sequence[Sequence],
            cols: int) -> tuple[Vector, ...]:
    """The canonical kernel basis, as field elements, of prepared rows with
    cols columns: ints over Q, where any nonzero rational multiple of each
    row has the same kernel and RREF, elements over Q[t]/(m).

    The vector of free column f is 1 at f and minus the RREF's column f at
    the pivot columns.  _kernel_vectors builds D times that from the rows
    _eliminate returns and checks it against the rows it started from; it
    is divided by D only on the way out.
    """
    basis, lead = _kernel_vectors(rows, *_eliminate(field, rows), cols)
    return tuple(tuple(_divided(field, vec, lead)) for vec in basis)


def _exact_kernel(field: FieldDescriptor, rows: Sequence[Sequence],
                  cols: int) -> list[list]:
    """D times the canonical kernel basis of prepared rows with cols
    columns, checked against the rows: ints over Q, elements over
    Q[t]/(m), where D is 1."""
    return _kernel_vectors(rows, *_eliminate(field, rows), cols)[0]


def _kernel_vectors(rows, reduced, pivots: list[int], cols: int):
    """D times the canonical kernel vectors, from the pivot rows and
    columns that _eliminate or _fraction_free gave for rows, and D.  Raises
    RuntimeError unless every vector vanishes on every row of rows."""
    lead = _lead(reduced, pivots)
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        vec = [0] * cols
        vec[f] = lead
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[f]
        basis.append(vec)
    if any(dot(row, vec) for vec in basis for row in rows):
        raise RuntimeError("kernel vector check failed")
    return basis, lead


def solve(matrix: Matrix, rhs: Sequence[FieldElement]) -> Optional[Vector]:
    """One solution of matrix @ x = rhs with free variables set to zero.

    Returns None when the system is inconsistent.
    """
    if len(rhs) != matrix.rows:
        raise ShapeError(f"solve: {matrix.rows} rows vs {len(rhs)} rhs entries")
    field = matrix.field
    augmented = Matrix(field, [list(r) + [b]
                               for r, b in zip(matrix.entries, rhs)])
    rows, pivots = _rref(augmented)
    if pivots and pivots[-1] == matrix.cols:
        return None
    solution = [0] * matrix.cols
    for row, pc in zip(rows, pivots):
        solution[pc] = row[matrix.cols]
    return tuple(_divided(field, solution, _lead(rows, pivots)))


def invert(matrix: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = matrix.rows
    if matrix.cols != n:
        raise ShapeError("invert: matrix is not square")
    field = matrix.field
    one, zero = field.one(), field.zero()
    augmented = Matrix(field, [list(r) + [one if i == j else zero
                                          for j in range(n)]
                               for i, r in enumerate(matrix.entries)])
    rows, pivots = _rref(augmented)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise ValueError("singular matrix")
    lead = _lead(rows, pivots)
    return Matrix(field, [_divided(field, row[n:], lead) for row in rows])


def in_span(vector: Sequence[FieldElement], basis: SubspaceBasis) -> bool:
    """Exact membership of vector in the span of the basis vectors: stacking
    the vector onto them leaves their rank unchanged."""
    if len(vector) != basis.ambient_dim:
        raise ShapeError(
            f"in_span: ambient {basis.ambient_dim} vs vector {len(vector)}")
    if not basis.vectors:
        return not any(vector)
    field = basis.vectors[0][0].field
    return (rank(Matrix(field, (*basis.vectors, vector)))
            == rank(Matrix(field, basis.vectors)))


def span_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Whether the two bases, of equal size, span the same subspace: both
    have the rank of the vectors of both."""
    if a.ambient_dim != b.ambient_dim:
        raise ShapeError("span_equal: ambient dimensions differ")
    if a.dim != b.dim:
        return False
    if not a.vectors:
        return True
    field = a.vectors[0][0].field
    both = rank(Matrix(field, (*a.vectors, *b.vectors)))
    return (rank(Matrix(field, a.vectors)) == both
            and rank(Matrix(field, b.vectors)) == both)
