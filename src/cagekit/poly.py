"""Sparse homogeneous polynomials and linear forms over an exact field.

Monomials are exponent tuples over num_vars variables.  The monomial basis
of a fixed degree is ordered lexicographically by descending exponent tuple,
which fixes coefficient-vector coordinates once and for all.  By convention
the last variable is the homogenizing one: the affine point (a_1 .. a_n)
embeds as [a_1 : ... : a_n : 1].
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import InvalidPointError, ShapeError
from .field import FieldDescriptor, FieldElement

Monomial = tuple[int, ...]


@lru_cache(maxsize=None)
def monomial_basis(degree: int, num_vars: int) -> tuple[Monomial, ...]:
    """All exponent tuples of total degree `degree`, lex descending."""
    if degree < 0 or num_vars < 1:
        raise ValueError("degree must be >= 0 and num_vars >= 1")
    if num_vars == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in monomial_basis(degree - first, num_vars - 1):
            out.append((first,) + rest)
    return tuple(out)


class LinearForm:
    """Nonzero linear form sum(coeffs[i] * x_i)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs: Iterable):
        vec = tuple(field.coerce(c) for c in coeffs)
        if all(c.is_zero() for c in vec):
            raise ValueError("linear form must have a nonzero coefficient")
        self.field = field
        self.coeffs = vec

    @property
    def num_vars(self) -> int:
        return len(self.coeffs)

    def evaluate(self, point: Sequence[FieldElement]) -> FieldElement:
        if len(point) != self.num_vars:
            raise ShapeError("point arity differs from form arity")
        acc = self.field.zero()
        for c, x in zip(self.coeffs, point):
            if not c.is_zero():
                acc = acc + c * x
        return acc

    def to_poly(self) -> "HomogPoly":
        terms = {}
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                exp = [0] * self.num_vars
                exp[i] = 1
                terms[tuple(exp)] = c
        return HomogPoly(self.field, self.num_vars, 1, terms)

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"LinearForm({list(self.coeffs)})"


class HomogPoly:
    """Homogeneous polynomial as a sparse exponent-tuple -> coefficient map.

    The zero polynomial of any degree is allowed (empty term map); every
    stored monomial must have the declared total degree.
    """

    __slots__ = ("field", "num_vars", "degree", "terms")

    def __init__(self, field: FieldDescriptor, num_vars: int, degree: int,
                 terms: Mapping[Monomial, FieldElement]):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        clean: dict[Monomial, FieldElement] = {}
        for exp, coeff in terms.items():
            exp = tuple(exp)
            if len(exp) != num_vars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp}")
            if sum(exp) != degree:
                raise ValueError(
                    f"monomial {exp} has degree {sum(exp)}, expected {degree}")
            c = field.coerce(coeff)
            if not c.is_zero():
                clean[exp] = c
        self.field = field
        self.num_vars = num_vars
        self.degree = degree
        self.terms = clean

    @classmethod
    def zero(cls, field: FieldDescriptor, num_vars: int, degree: int):
        return cls(field, num_vars, degree, {})

    @classmethod
    def from_coefficients(cls, field: FieldDescriptor, num_vars: int,
                          degree: int, vector: Sequence) -> "HomogPoly":
        basis = monomial_basis(degree, num_vars)
        if len(vector) != len(basis):
            raise ShapeError(
                f"coefficient vector length {len(vector)} vs basis {len(basis)}")
        return cls(field, num_vars, degree, dict(zip(basis, vector)))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_vector(self) -> tuple[FieldElement, ...]:
        zero = self.field.zero()
        return tuple(self.terms.get(m, zero)
                     for m in monomial_basis(self.degree, self.num_vars))

    def _check_companion(self, other: "HomogPoly"):
        if (self.field != other.field or self.num_vars != other.num_vars
                or self.degree != other.degree):
            raise ShapeError("polynomials live in different spaces")

    def __add__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        self._check_companion(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, self.field.zero()) + c
        return HomogPoly(self.field, self.num_vars, self.degree, terms)

    def __sub__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return HomogPoly(self.field, self.num_vars, self.degree,
                         {e: -c for e, c in self.terms.items()})

    def scale(self, scalar) -> "HomogPoly":
        s = self.field.coerce(scalar)
        return HomogPoly(self.field, self.num_vars, self.degree,
                         {e: s * c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, HomogPoly):
            self._check_companion_field(other)
            terms: dict[Monomial, FieldElement] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    exp = tuple(a + b for a, b in zip(e1, e2))
                    prod = c1 * c2
                    if exp in terms:
                        terms[exp] = terms[exp] + prod
                    else:
                        terms[exp] = prod
            return HomogPoly(self.field, self.num_vars,
                             self.degree + other.degree, terms)
        return self.scale(other)

    __rmul__ = __mul__

    def _check_companion_field(self, other: "HomogPoly"):
        if self.field != other.field or self.num_vars != other.num_vars:
            raise ShapeError("polynomials live in different spaces")

    def evaluate(self, point: Sequence[FieldElement]) -> FieldElement:
        if len(point) != self.num_vars:
            raise ShapeError("point arity differs from polynomial arity")
        pt = [self.field.coerce(x) for x in point]
        if all(x.is_zero() for x in pt):
            raise InvalidPointError("all-zero tuple is not a projective point")
        values = monomial_values(self.field.one(), pt, self.terms,
                                 self.degree)
        acc = self.field.zero()
        for coeff, val in zip(self.terms.values(), values):
            acc = acc + coeff * val
        return acc

    def __eq__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return (self.field == other.field and self.num_vars == other.num_vars
                and self.degree == other.degree and self.terms == other.terms)

    def __repr__(self):
        return (f"HomogPoly(deg={self.degree}, vars={self.num_vars}, "
                f"{len(self.terms)} terms)")


def monomial_values(one, point: Sequence, monomials: Iterable[Monomial],
                    degree: int) -> list:
    """Values at the point of exponent tuples whose entries are at most
    `degree`, in the order given, as products starting from `one`."""
    powers = []
    for x in point:
        col = [one]
        for _ in range(degree):
            col.append(col[-1] * x)
        powers.append(col)
    values = []
    for exp in monomials:
        val = one
        for i, e in enumerate(exp):
            if e:
                val = val * powers[i][e]
        values.append(val)
    return values


def product_of_linear_forms(forms: Sequence[LinearForm]) -> HomogPoly:
    """Expand a product of linear forms; degree equals the factor count."""
    if not forms:
        raise ValueError("empty product of linear forms")
    field = forms[0].field
    nv = forms[0].num_vars
    for f in forms:
        if f.field != field or f.num_vars != nv:
            raise ShapeError("factors live in different spaces")
    result = forms[0].to_poly()
    for f in forms[1:]:
        result = result * f.to_poly()
    return result

