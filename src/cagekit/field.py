"""Exact scalar arithmetic: the rationals and simple extensions Q[t]/(m(t)).

Every structure in the package is parameterized by a FieldDescriptor, either
the rationals or a quotient Q[t]/(m(t)) by a monic polynomial of degree >= 2.
Elements are immutable; no operation ever falls back to floating point.  The
modulus is not required to be irreducible up front: reducibility surfaces,
exactly when it matters, as a ReducibleModulusError raised by inversion.

One representation.  Every element, a rational included, is a tuple of
integer numerators over one positive common denominator, in lowest terms
(gcd(den, *num) == 1), the standard representation of number-field elements
(Cohen 1993, section 4.2); a rational has one numerator.  The pair is
unique, so equal elements have equal pairs.  Arithmetic runs on ints and
pays one gcd per result, where Fraction coefficients pay one per
coefficient operation: a product is an integer convolution reduced by
integer rows over one denominator, conjugation is an integer linear map,
and an inverse solves the integer multiplication matrix by linalg's
fraction-free elimination.  Kernel vectors, node keys and integer literals
arrive as ints, so an element is built from them with at most one gcd and
no Fraction; the public Fraction coefficients are built only when read.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from numbers import Number
from typing import Iterable, Sequence, Union

from .errors import FieldMismatchError, NotInvertibleError, ReducibleModulusError

RationalLike = Union[int, Fraction]

_ZERO = Fraction(0)
# the numeric hash of Python's int, Fraction and float (sys.hash_info)
_MODULUS, _INF = sys.hash_info.modulus, sys.hash_info.inf


def _rational(x) -> RationalLike:
    """x as an int or a Fraction; a string is read as Fraction reads it."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


def _integral(vectors) -> tuple[list[list[int]], int]:
    """Vectors of ints and Fractions as integer vectors over their least
    common denominator D: the ints D*x, and D.  One vector comes out in
    lowest terms: a prime power dividing D exactly divides the
    denominator of some entry, and not that entry's numerator."""
    den = lcm(*(x.denominator for vec in vectors for x in vec))
    return [[x.numerator * (den // x.denominator) for x in vec]
            for vec in vectors], den


def _sparse(rows) -> tuple:
    """The nonzero (column, entry) pairs of each integer row."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x)
                 for row in rows)


# -- field descriptor --------------------------------------------------------

class FieldDescriptor:
    """Identifies the scalar field: rationals, or Q[t]/(m(t)) for monic m.

    For extensions, min_poly holds the coefficients of m low to high
    (len = degree + 1, leading coefficient 1, degree >= 2).  An optional
    conjugation vector gives the image of t under a distinguished field
    automorphism as a coefficient vector, used by demos that need to decide
    which points are fixed by complex conjugation.  Descriptors are equal
    when kind, modulus and conjugation agree; the label is only a name.

    Reducibility contract: m need not be irreducible.  When it factors,
    Q[t]/(m) is not a field, and an answer that depends on the factor
    raises ReducibleModulusError when inversion meets a zero divisor.  An
    answer that holds in every factor alike is returned without that
    error: linalg.rank certifies a full rank at every root of m modulo a
    split prime, which is a full rank in every factor however m factors.
    The descriptor holds its hash and caches the integer rows of the
    reduction and of the conjugation.
    """

    __slots__ = ("kind", "min_poly", "label", "conjugation", "degree",
                 "_hash", "_reduction", "_sigma_powers")

    def __init__(self, kind: str, min_poly=None, label: str = "",
                 conjugation=None):
        if kind not in ("rationals", "extension"):
            raise ValueError(f"unknown field kind: {kind!r}")
        if kind == "rationals":
            if min_poly is not None:
                raise ValueError("rationals take no modulus")
            self.min_poly = None
            self.conjugation = None
        else:
            mp = tuple(Fraction(_rational(c)) for c in min_poly)
            if len(mp) < 3:
                raise ValueError("extension modulus must have degree >= 2")
            if mp[-1] != 1:
                raise ValueError("extension modulus must be monic")
            self.min_poly = mp
            if conjugation is None:
                self.conjugation = None
            else:
                conj = tuple(Fraction(_rational(c)) for c in conjugation)
                if len(conj) != len(mp) - 1:
                    raise ValueError("conjugation vector has wrong length")
                self.conjugation = conj
        self.kind = kind
        self.degree = 1 if kind == "rationals" else len(self.min_poly) - 1
        self.label = label or ("Q" if kind == "rationals" else "Q[t]/(m)")
        self._hash = hash((kind, self.min_poly, self.conjugation))
        self._reduction = None
        self._sigma_powers = None

    @classmethod
    def rationals(cls) -> "FieldDescriptor":
        return cls("rationals", label="Q")

    @classmethod
    def extension(cls, min_poly: Sequence[RationalLike], label: str = "",
                  conjugation=None) -> "FieldDescriptor":
        return cls("extension", min_poly=min_poly, label=label,
                   conjugation=conjugation)

    def _reduction_rows(self) -> list[tuple[Fraction, ...]]:
        # row k = coefficient vector of t^(degree+k) reduced mod min_poly
        m = self.degree
        base = [-c for c in self.min_poly[:m]]
        rows = [tuple(base)]
        for _ in range(m - 2):
            prev = rows[-1]
            nxt = [_ZERO] + list(prev[: m - 1])
            top = prev[m - 1]
            if top:
                for j in range(m):
                    nxt[j] += top * base[j]
            rows.append(tuple(nxt))
        return rows

    def _int_reduction(self):
        """The reduction rows over one denominator D: row k holds the
        nonzero (j, D*c_j) of t^(degree+k) = sum c_j t^j mod min_poly."""
        if self._reduction is None:
            rows, den = _integral(self._reduction_rows())
            self._reduction = _sparse(rows), den
        return self._reduction

    def _int_conjugation(self):
        """The conjugation rows over one denominator E: row k holds the
        nonzero (j, E*c_j) of sigma(t)^k = sum c_j t^j, so sigma is the
        linear map sigma(sum a_k t^k) = sum a_k sigma(t)^k."""
        if self._sigma_powers is None:
            sigma = self.element(self.conjugation)
            powers = [self.one()]
            for _ in range(self.degree - 1):
                powers.append(powers[-1] * sigma)
            den = lcm(*(x._den for x in powers))
            self._sigma_powers = _sparse(
                [[c * (den // x._den) for c in x._num] for x in powers]), den
        return self._sigma_powers

    # element constructors

    def element(self, coeffs: Iterable[RationalLike]) -> "FieldElement":
        return FieldElement(self, [_rational(c) for c in coeffs])

    def from_rational(self, value: RationalLike) -> "FieldElement":
        # the ratio of an int, a bool included, is an int over 1
        if not isinstance(value, (int, Fraction)):
            value = _rational(value)
        num, den = value.as_integer_ratio()
        return _integer_element(self, (num,) + (0,) * (self.degree - 1), den)

    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def generator(self) -> "FieldElement":
        """The class of t.  Extensions only."""
        if self.kind == "rationals":
            raise ValueError("the rationals have no generator t")
        return _integer_element(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def coerce(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(
                    f"element of {value.field.label} used in {self.label}")
            return value
        return self.from_rational(value)

    def __eq__(self, other):
        # operands almost always share one descriptor object
        if self is other:
            return True
        if not isinstance(other, FieldDescriptor):
            return NotImplemented
        return (self.kind == other.kind and self.min_poly == other.min_poly
                and self.conjugation == other.conjugation)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so that a copy in another process holds
        # that process's hash: str hashes differ between processes
        return type(self), (self.kind, self.min_poly, self.label,
                            self.conjugation)

    def __repr__(self):
        return f"FieldDescriptor({self.label})"


# -- field elements ----------------------------------------------------------

_new = object.__new__


def _integer_element(field: FieldDescriptor, num: tuple[int, ...],
                     den: int) -> "FieldElement":
    """The element num/den, for num and den already in lowest terms with
    den > 0."""
    e = _new(FieldElement)
    e.field = field
    e._num = num
    e._den = den
    return e


def _lowest(field: FieldDescriptor, num: list[int],
            den: int) -> "FieldElement":
    """The element num/den, for den > 0, put in lowest terms."""
    g = gcd(den, *num)
    if g == 1:
        return _integer_element(field, tuple(num), den)
    return _integer_element(field, tuple(x // g for x in num), den // g)


class FieldElement:
    """Immutable element of a FieldDescriptor's field.

    The value is integer numerators _num, field.degree of them, over the
    common denominator _den, in lowest terms with _den > 0; coeffs, the
    public tuple of Fractions, is built when read.  FieldElement(field,
    coeffs) takes field.degree ints and Fractions.  Arithmetic with int and
    Fraction promotes automatically; elements of distinct fields refuse to
    mix.
    """

    __slots__ = ("field", "_num", "_den")

    def __init__(self, field: FieldDescriptor,
                 coeffs: Sequence[RationalLike]):
        if len(coeffs) != field.degree:
            raise ValueError(
                f"expected {field.degree} coefficients, got {len(coeffs)}")
        [num], den = _integral([coeffs])
        self.field = field
        self._num = tuple(num)
        self._den = den

    def __reduce__(self):
        return _integer_element, (self.field, self._num, self._den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError(
                    f"cannot mix {self.field.label} with {other.field.label}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; raises if it has a nonzero t-part."""
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._num[0], self._den)

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        da, db = self._den, o._den
        if da == db:
            return _lowest(field, [x + y for x, y in zip(self._num, o._num)],
                           da)
        return _lowest(field, [x * db + y * da
                               for x, y in zip(self._num, o._num)], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        da, db = self._den, o._den
        if da == db:
            return _lowest(field, [x - y for x, y in zip(self._num, o._num)],
                           da)
        return _lowest(field, [x * db - y * da
                               for x, y in zip(self._num, o._num)], da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _integer_element(self.field, tuple(-x for x in self._num),
                                self._den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        m = field.degree
        if m == 1:
            x, den = self._num[0] * o._num[0], self._den * o._den
            g = gcd(x, den)
            return _integer_element(field, (x // g,), den // g)
        # the convolution of the numerators, then t^(m+k) replaced by its
        # reduction row over D: (D*low + sum_k conv[m+k]*R[k]) / (den*den'*D)
        right = [(j, y) for j, y in enumerate(o._num) if y]
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(self._num):
            if x:
                for j, y in right:
                    conv[i + j] += x * y
        den = self._den * o._den
        low = conv[:m]
        if any(conv[m:]):
            rows, scale = field._int_reduction()
            if scale != 1:
                low = [scale * x for x in low]
                den *= scale
            for c, row in zip(conv[m:], rows):
                if c:
                    for j, r in row:
                        low[j] += c * r
        return _lowest(field, low, den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise NotInvertibleError("division by zero")
        num = self._num
        if not any(num[1:]):
            # a nonzero rational is a unit whatever the modulus
            sign = -1 if num[0] < 0 else 1
            return _integer_element(self.field, (sign * self._den,) + num[1:],
                                    sign * num[0])
        # x = num/den with num of degree >= 1.  Column j of the integer
        # matrix A is num*t^j times scale^j, so A w = D e_0 gives
        # x^-1 = den * sum_j scale^j (w_j / D) t^j.  A is singular exactly
        # when gcd(num, m) is nontrivial, and m - rank A is its degree: the
        # kernel of multiplication by num is the multiples of m / gcd.
        from .linalg import _fraction_free
        m = self.field.degree
        rows, scale = self.field._int_reduction()
        col, cols = list(num), []
        for _ in range(m):
            cols.append(col)
            top = col[-1]
            col = [0] + [scale * c for c in col[:-1]]
            for j, r in rows[0]:
                col[j] += top * r
        echelon, pivots = _fraction_free(
            [list(row) + [int(i == 0)] for i, row in enumerate(zip(*cols))])
        rank = sum(1 for c in pivots if c < m)
        if rank < m:
            # x is a zero divisor, so m factors
            raise ReducibleModulusError(
                f"modulus of {self.field.label} is reducible; "
                f"witness gcd degree {m - rank}")
        det = echelon[0][0]
        sign = -1 if det < 0 else 1
        out, power = [], sign * self._den
        for row in echelon:
            out.append(power * row[m])
            power *= scale
        return _lowest(self.field, out, sign * det)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.field.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "FieldElement":
        """Image under the descriptor's distinguished automorphism."""
        field = self.field
        if field.kind == "rationals":
            return self
        if field.conjugation is None:
            raise ValueError(f"{field.label} carries no conjugation data")
        rows, scale = field._int_conjugation()
        out = [0] * field.degree
        for c, row in zip(self._num, rows):
            if c:
                for j, x in row:
                    out[j] += c * x
        return _lowest(field, out, self._den * scale)

    def __eq__(self, other):
        # rational values compare by value, also across fields, so that
        # equality stays transitive through int and Fraction; their
        # numerator and denominator are in lowest terms too.  Any other
        # number (float, complex, Decimal) is compared as the value's
        # Fraction compares, the same whichever operand Python asks first
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return self._den == other._den and self._num == other._num
            if not other.is_rational():
                return False
            num, den = other._num[0], other._den
        elif isinstance(other, (int, Fraction)):
            num, den = other.as_integer_ratio()
        elif isinstance(other, Number):
            return (not any(self._num[1:])
                    and Fraction(self._num[0], self._den) == other)
        else:
            return NotImplemented
        return (self._num[0] == num and self._den == den
                and not any(self._num[1:]))

    def __hash__(self):
        # a rational value equals its int and its Fraction, so it hashes by
        # Python's numeric hash of num/den, as they do
        num, den = self._num, self._den
        if any(num[1:]):
            return hash((self.field, num, den))
        # (an int's hash is its residue mod _MODULUS, signed, so num times
        # the inverse of den hashes as num/den does)
        try:
            return hash(num[0] * pow(den, -1, _MODULUS))
        except ValueError:          # _MODULUS divides den
            return _INF if num[0] > 0 else -_INF

    def __repr__(self):
        if self.is_rational():
            return str(self.as_fraction())
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{k}" if c != 1 else f"t^{k}")
        return " + ".join(parts) if parts else "0"

