"""Exact scalar arithmetic: the rationals and simple extensions Q[t]/(m(t)).

Every structure in the package is parameterized by a FieldDescriptor, either
the rationals or a quotient Q[t]/(m(t)) by a monic polynomial of degree >= 2.
Elements are immutable coefficient vectors over Fraction; no operation ever
falls back to floating point.  The modulus is not required to be irreducible
up front: reducibility surfaces, exactly when it matters, as a
ReducibleModulusError raised by inversion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import FieldMismatchError, NotInvertibleError, ReducibleModulusError

RationalLike = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


# -- polynomial helpers over Fraction, coefficient lists low to high --------

def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for i, bi in enumerate(b):
        out[i] -= bi
    return _trim(out)


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    if len(rem) < len(b):
        return [], _trim(rem)
    quo = [_ZERO] * (len(rem) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for k in range(len(rem) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * inv_lead
        if c:
            quo[k] = c
            for j, bj in enumerate(b):
                rem[k + j] -= c * bj
    return _trim(quo), _trim(rem[: len(b) - 1])


def _poly_xgcd(a: list[Fraction], b: list[Fraction]):
    """Return (g, u, v) with u*a + v*b = g, g the (unnormalized) gcd."""
    r0, r1 = _trim(list(a)), _trim(list(b))
    u0, u1 = [_ONE], []
    v0, v1 = [], [_ONE]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1))
        v0, v1 = v1, _poly_sub(v0, _poly_mul(q, v1))
    return r0, u0, v0


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
    The descriptor caches its reduction rows and the powers of the
    conjugate of t.
    """

    __slots__ = ("kind", "min_poly", "label", "conjugation", "_reduction",
                 "_sigma_powers")

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
            mp = tuple(_as_fraction(c) for c in min_poly)
            if len(mp) < 3:
                raise ValueError("extension modulus must have degree >= 2")
            if mp[-1] != 1:
                raise ValueError("extension modulus must be monic")
            self.min_poly = mp
            if conjugation is None:
                self.conjugation = None
            else:
                conj = tuple(_as_fraction(c) for c in conjugation)
                if len(conj) != len(mp) - 1:
                    raise ValueError("conjugation vector has wrong length")
                self.conjugation = conj
        self.kind = kind
        self.label = label or ("Q" if kind == "rationals" else "Q[t]/(m)")
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

    @property
    def degree(self) -> int:
        return 1 if self.kind == "rationals" else len(self.min_poly) - 1

    def _reduction_rows(self):
        # row k = coefficient vector of t^(degree+k) reduced mod min_poly
        if self._reduction is None:
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
            self._reduction = tuple(rows)
        return self._reduction

    def _conjugation_rows(self):
        # row k = coefficient vector of sigma(t)^k, so sigma is linear:
        # sigma(sum c_k t^k) = sum c_k sigma(t)^k
        if self._sigma_powers is None:
            sigma = FieldElement(self, self.conjugation)
            rows = [self.one()]
            for _ in range(self.degree - 1):
                rows.append(rows[-1] * sigma)
            self._sigma_powers = tuple(r.coeffs for r in rows)
        return self._sigma_powers

    # element constructors

    def element(self, coeffs: Iterable[RationalLike]) -> "FieldElement":
        vec = tuple(_as_fraction(c) for c in coeffs)
        if len(vec) != self.degree:
            raise ValueError(
                f"expected {self.degree} coefficients, got {len(vec)}")
        return FieldElement(self, vec)

    def from_rational(self, value: RationalLike) -> "FieldElement":
        v = _as_fraction(value)
        return FieldElement(self, (v,) + (_ZERO,) * (self.degree - 1))

    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def generator(self) -> "FieldElement":
        """The class of t.  Extensions only."""
        if self.kind == "rationals":
            raise ValueError("the rationals have no generator t")
        vec = [_ZERO] * self.degree
        vec[1] = _ONE
        return FieldElement(self, tuple(vec))

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
        return hash((self.kind, self.min_poly, self.conjugation))

    def __repr__(self):
        return f"FieldDescriptor({self.label})"


# -- field elements ----------------------------------------------------------

class FieldElement:
    """Immutable element of a FieldDescriptor's field.

    Stored as a Fraction coefficient vector of length field.degree (so a plain
    rational is a length-1 vector).  Arithmetic with int and Fraction promotes
    automatically; elements of distinct fields refuse to mix.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot mix {self.field.label} with {other.field.label}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; raises if it has a nonzero t-part."""
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, tuple(
            a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, tuple(
            a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.field.degree
        if m == 1:
            return FieldElement(self.field, (self.coeffs[0] * o.coeffs[0],))
        a, b = self.coeffs, o.coeffs
        conv = [_ZERO] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        rows = self.field._reduction_rows()
        for k in range(2 * m - 2, m - 1, -1):
            c = conv[k]
            if c:
                row = rows[k - m]
                for j in range(m):
                    if row[j]:
                        conv[j] += c * row[j]
        return FieldElement(self.field, tuple(conv[:m]))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise NotInvertibleError("division by zero")
        m = self.field.degree
        if m == 1:
            return FieldElement(self.field, (1 / self.coeffs[0],))
        g, u, _ = _poly_xgcd(list(self.coeffs), list(self.field.min_poly))
        if len(g) != 1:
            # gcd(x, m) nontrivial: x is a zero divisor, so m factors
            raise ReducibleModulusError(
                f"modulus of {self.field.label} is reducible; "
                f"witness gcd degree {len(g) - 1}")
        scale = 1 / g[0]
        vec = [c * scale for c in u] + [_ZERO] * (m - len(u))
        return FieldElement(self.field, tuple(vec[:m]))

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
        if self.field.kind == "rationals":
            return self
        if self.field.conjugation is None:
            raise ValueError(
                f"{self.field.label} carries no conjugation data")
        out = [_ZERO] * self.field.degree
        for c, row in zip(self.coeffs, self.field._conjugation_rows()):
            if c:
                for j, x in enumerate(row):
                    if x:
                        out[j] += c * x
        return FieldElement(self.field, tuple(out))

    def __eq__(self, other):
        # rational values compare by value, also across fields, so that
        # equality stays transitive through int and Fraction
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, FieldElement):
            return NotImplemented
        if self.field == other.field:
            return self.coeffs == other.coeffs
        return (self.is_rational() and other.is_rational()
                and self.coeffs[0] == other.coeffs[0])

    def __hash__(self):
        # a rational value equals its Fraction, so it must hash like one
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.field.kind == "rationals" or self.is_rational():
            return str(self.coeffs[0])
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

