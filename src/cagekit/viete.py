"""Root configurations, elementary symmetric coordinates, and the cages
they induce on the space of monic polynomials.

A point q = (z_1 .. z_n) of distinct roots corresponds to the monic
polynomial prod (x - z_j), whose coefficient vector is given by the
elementary symmetric functions e_1 .. e_n up to sign.  For a fixed value c,
the set of monic degree-n polynomials vanishing at c is a hyperplane in
coefficient space; a configuration of d root points whose coordinates never
collide turns those hyperplanes into a cage whose nodes are exactly the
coefficient images of the root points, one per way of picking roots.
"""

from __future__ import annotations

from typing import Sequence

from .cage import Cage, validated
from .field import FieldDescriptor, FieldElement
from .poly import LinearForm


class Configuration:
    """d affine root points in n coordinates, no value repeated within a
    coordinate and no value shared between coordinates."""

    __slots__ = ("field", "points")

    def __init__(self, field: FieldDescriptor, points: Sequence[Sequence]):
        pts = tuple(tuple(field.coerce(x) for x in p) for p in points)
        if not pts:
            raise ValueError("configuration needs at least one point")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise ValueError("configuration points have inconsistent arity")
        all_values = [x for p in pts for x in p]
        if len(set(all_values)) != len(all_values):
            raise ValueError(
                "root values must be pairwise distinct across the whole "
                "configuration")
        self.field = field
        self.points = pts

    @property
    def d(self) -> int:
        return len(self.points)

    @property
    def n(self) -> int:
        return len(self.points[0])

    def coordinate_values(self, j: int) -> tuple[FieldElement, ...]:
        """Values of the j-th coordinate across the d points (j from 0)."""
        return tuple(p[j] for p in self.points)


def elementary_symmetric(values: Sequence[FieldElement]
                         ) -> tuple[FieldElement, ...]:
    """(e_1 .. e_n) of the given values, by expanding prod (x + z_j)."""
    if not values:
        raise ValueError("need at least one value")
    field = values[0].field
    # e[k] is e_k of the values processed so far; a new value z adds
    # z * e_(k-1) to e_k, highest k first
    e = [field.one()] + [field.zero()] * len(values)
    for count, z in enumerate(values, 1):
        for k in range(count, 0, -1):
            e[k] = e[k] + z * e[k - 1]
    return tuple(e[1:])


def viete_image(point: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """Coefficient-space image of a root point: its elementary symmetric
    values, as affine coordinates (w_1 .. w_n)."""
    return elementary_symmetric(list(point))


def root_hyperplane(field: FieldDescriptor, c, n: int) -> LinearForm:
    """Hyperplane of monic degree-n polynomials vanishing at the value c.

    In homogeneous coordinates [w_1 : ... : w_n : h], where w_k carries the
    elementary symmetric value e_k, membership of the polynomial
    x^n - e_1 x^(n-1) + ... + (-1)^n e_n reads
    c^n - w_1 c^(n-1) + w_2 c^(n-2) - ... + (-1)^n w_n = 0 after scaling by h.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    cval = field.coerce(c)
    coeffs = []
    sign = -1
    for k in range(1, n + 1):
        coeffs.append(field.from_rational(sign) * cval ** (n - k))
        sign = -sign
    coeffs.append(cval ** n)
    return LinearForm(field, coeffs)


def coefficient_cage(config: Configuration) -> Cage:
    """Cage in coefficient space induced by a root configuration.

    Color j collects the root hyperplanes of the d values taken by the j-th
    coordinate; validity is certified by running full cage validation rather
    than assumed from the Vandermonde structure.
    """
    groups = []
    for j in range(config.n):
        groups.append([root_hyperplane(config.field, v, config.n)
                       for v in config.coordinate_values(j)])
    return validated(Cage(config.field, groups),
                     "coefficient cage failed validation")


def node_matches_roots(cage: Cage, config: Configuration,
                       index: Sequence[int]) -> bool:
    """The node of the coefficient cage at a multi-index equals the
    coefficient image of the corresponding root choices.

    Index entry j picks the root value z_j(q_{i_j}); the node must be the
    affine point (e_1 .. e_n) of those values, embedded with trailing 1.
    """
    idx = tuple(index)
    chosen = [config.coordinate_values(j)[idx[j] - 1]
              for j in range(config.n)]
    expected = viete_image(chosen) + (config.field.one(),)
    return cage.node(idx).point == expected
