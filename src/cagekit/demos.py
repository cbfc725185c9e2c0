"""Worked constructions: named cages with certified inscribed varieties.

Each demo builds a cage, certifies the interpolation property on it, and
exhibits at least one distinguished polynomial together with the exact
pencil coefficients that produce it.  The two number-field demos run over
simple extensions of Q presented by a single primitive element; the
modulus, the coordinates of the subgenerators, and the conjugation vector
were computed offline with sympy (resultant-based primitive element
search) and are frozen below.  Nothing is taken on faith at runtime: every
frozen identity is re-verified exactly before the demo runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

from .cage import Cage, all_indices, axis_cage, supra_simplicial_indices
from .field import FieldDescriptor, FieldElement
from .inscribe import (LambdaMatrix, inscribe_with_tangent, make_tangent,
                       tangent_at_node)
from .linalg import SubspaceBasis, span_equal
from .poly import HomogPoly
from .verify import (CheckResult, VerificationReport,
                     complete_intersection_span_check, smoothness_check,
                     verify_supra_interpolation)


@dataclass(frozen=True)
class DemoSpec:
    name: str
    description: str
    notes: tuple[str, ...]
    cage: Cage
    targets: tuple[tuple[str, HomogPoly, tuple], ...]
    extra_checks: tuple[Callable[[VerificationReport], CheckResult], ...] = ()


def _fr(items: Sequence[str]) -> list[Fraction]:
    return [Fraction(s) for s in items]


# -- frozen primitive-element data (low degree first) ------------------------

# gamma = theta + i, theta^4 = -1/3, i^2 = -1; degree 8 over Q
_QUARTIC_MIN_POLY = _fr(["16/9", "0", "0", "0", "20/3", "0", "4", "0", "1"])
_QUARTIC_THETA = _fr(["0", "-1/22", "0", "-45/22", "0", "-12/11", "0",
                      "-45/176"])
_QUARTIC_I = _fr(["0", "23/22", "0", "45/22", "0", "12/11", "0", "45/176"])
_QUARTIC_CONJ = _fr(["-6/11", "-23/22", "-23/22", "-45/22", "-15/44",
                     "-12/11", "-3/44", "-45/176"])

# gamma = omega + cbrt3, omega^2 + omega + 1 = 0, cbrt3^3 = 3; degree 6
_CUBIC_MIN_POLY = _fr(["16", "12", "-3", "1", "6", "3", "1"])
_CUBIC_OMEGA = _fr(["-4/3", "1/12", "7/12", "-1/6", "-1/12", "-1/12"])
_CUBIC_CBRT3 = _fr(["4/3", "11/12", "-7/12", "1/6", "1/12", "1/12"])
_CUBIC_CONJ = _fr(["5/3", "5/6", "-7/6", "1/3", "1/6", "1/6"])


def _certify(name: str, condition: bool):
    if not condition:
        raise RuntimeError(f"frozen demo data failed its check: {name}")


def quartic_roots_field() -> tuple[FieldDescriptor, FieldElement, FieldElement]:
    """Q(theta, i) with theta^4 = -1/3, as Q(gamma) for gamma = theta + i.

    Returns (field, theta, i) after re-verifying the defining identities,
    that conjugation is a well-defined involution, and that it fixes theta
    to -i*theta and i to -i.
    """
    field = FieldDescriptor.extension(
        _QUARTIC_MIN_POLY, label="Q(theta,i)", conjugation=_QUARTIC_CONJ)
    theta = field.element(_QUARTIC_THETA)
    eye = field.element(_QUARTIC_I)
    t = field.generator()
    _certify("theta^4 = -1/3", theta ** 4 == Fraction(-1, 3))
    _certify("i^2 = -1", eye ** 2 == -1)
    _certify("gamma = theta + i", theta + eye == t)
    sigma = field.element(_QUARTIC_CONJ)
    _certify("modulus vanishes at sigma(t)",
             _eval_modulus(field, sigma).is_zero())
    _certify("conjugation is an involution", t.conjugate().conjugate() == t)
    _certify("conj(theta) = -i*theta", theta.conjugate() == -eye * theta)
    _certify("conj(i) = -i", eye.conjugate() == -eye)
    return field, theta, eye


def cubic_roots_field() -> tuple[FieldDescriptor, FieldElement, FieldElement]:
    """Q(omega, 3^(1/3)) as Q(gamma) for gamma = omega + 3^(1/3)."""
    field = FieldDescriptor.extension(
        _CUBIC_MIN_POLY, label="Q(omega,cbrt3)", conjugation=_CUBIC_CONJ)
    omega = field.element(_CUBIC_OMEGA)
    cbrt = field.element(_CUBIC_CBRT3)
    t = field.generator()
    _certify("omega^2 + omega + 1 = 0",
             (omega ** 2 + omega + 1).is_zero())
    _certify("cbrt3^3 = 3", cbrt ** 3 == 3)
    _certify("gamma = omega + cbrt3", omega + cbrt == t)
    sigma = field.element(_CUBIC_CONJ)
    _certify("modulus vanishes at sigma(t)",
             _eval_modulus(field, sigma).is_zero())
    _certify("conjugation is an involution", t.conjugate().conjugate() == t)
    _certify("conj(omega) = omega^2", omega.conjugate() == omega ** 2)
    _certify("conj(cbrt3) = cbrt3", cbrt.conjugate() == cbrt)
    return field, omega, cbrt


def _eval_modulus(field: FieldDescriptor, x: FieldElement) -> FieldElement:
    acc = field.zero()
    for c in reversed(field.min_poly):
        acc = acc * x + c
    return acc


def _power_sum_target(field: FieldDescriptor, n: int, degree: int,
                      last_coeff) -> HomogPoly:
    terms = {}
    for j in range(n):
        exp = [0] * (n + 1)
        exp[j] = degree
        terms[tuple(exp)] = field.one()
    exp = [0] * (n + 1)
    exp[n] = degree
    terms[tuple(exp)] = field.coerce(last_coeff)
    return HomogPoly(field, n + 1, degree, terms)


def _unit_pencil_demo(name: str, label: str, field: FieldDescriptor,
                      roots: Sequence[FieldElement], n: int, last_coeff,
                      description: str, notes: tuple[str, ...],
                      smooth: bool = True) -> DemoSpec:
    """The sum of the d-th powers of x_0..x_(n-1) plus last_coeff x_n^d, for
    d roots, as the unit pencil of the axis cage whose colors j = 1..n all
    hold the hyperplanes x_(j-1) = root * x_n, with a check that the pencil
    is smooth at the nodes when smooth."""
    cage = axis_cage(field, [(r,) * n for r in roots])
    lam = (field.one(),) * n
    variety = LambdaMatrix(cage, (lam,))

    def smooth_at_nodes(interp: VerificationReport) -> CheckResult:
        rep = smoothness_check(variety)
        return CheckResult("unit-pencil-smooth-at-nodes", rep.passed,
                           {"checks": [c.name for c in rep.checks]})

    target = _power_sum_target(field, n, len(roots), last_coeff)
    return DemoSpec(name=name, description=description, notes=notes,
                    cage=cage, targets=((label, target, lam),),
                    extra_checks=(smooth_at_nodes,) if smooth else ())


# -- individual demos ----------------------------------------------------------

def demo_fermat_conic() -> DemoSpec:
    """The circle x^2 + y^2 = z^2 inscribed in a 2x2 cage over Q(sqrt2)."""
    field = FieldDescriptor.extension(
        [-2, 0, 1], label="Q(sqrt2)",
        conjugation=[Fraction(0), Fraction(1)])
    xi = field.generator() / 2
    _certify("xi^2 = 1/2", xi ** 2 == Fraction(1, 2))
    return _unit_pencil_demo(
        "fermat-conic", "fermat-conic", field, [xi, -xi], 2, -1,
        description="x^2 + y^2 - z^2 through the four nodes of the 2x2 "
                    "cage with vertical and horizontal tangent lines at "
                    "the roots of xi^2 = 1/2",
        notes=("Each group product expands to x_j^2 - z^2/2, so the unit "
               "pencil coefficients reproduce the circle exactly.",),
        smooth=False)


def demo_k3_quartic() -> DemoSpec:
    """The Fermat quartic surface as a pencil over Q(theta, i)."""
    field, theta, eye = quartic_roots_field()
    spec = _unit_pencil_demo(
        "k3-quartic", "fermat-quartic", field,
        [theta * eye ** k for k in range(4)], 3, 1,
        description="sum of fourth powers of all four coordinates, cut out "
                    "by the unit pencil of the 4^3 cage over the roots of "
                    "z^4 = -1/3",
        notes=("Primitive element gamma = theta + i computed offline with "
               "sympy and re-certified here.",
               "All 64 nodes are invisible over the reals: none is fixed "
               "by coordinatewise conjugation.",))

    def invisibility(interp: VerificationReport) -> CheckResult:
        # a node fixed by coordinatewise conjugation would be a real point
        nodes = spec.cage.nodes()
        fixed = [node.index for node in nodes
                 if all(c.conjugate() == c for c in node.point)]
        return CheckResult("no-conjugation-fixed-node", not fixed,
                           {"node-count": len(nodes), "fixed": fixed})

    return replace(spec, extra_checks=(invisibility, *spec.extra_checks))


def demo_fermat_cubic() -> DemoSpec:
    """The Fermat cubic surface as a pencil over Q(omega, 3^(1/3))."""
    field, omega, cbrt = cubic_roots_field()
    a = cbrt ** 2 / 3
    _certify("a^3 = 1/3", a ** 3 == Fraction(1, 3))
    return _unit_pencil_demo(
        "fermat-cubic-surface", "fermat-cubic", field,
        [-a * omega ** k for k in range(3)], 3, 1,
        description="sum of cubes of all four coordinates through the 27 "
                    "nodes of the 3^3 cage over the roots of z^3 = -1/3",
        notes=("Primitive element gamma = omega + 3^(1/3) computed offline "
               "with sympy and re-certified here.",))


def demo_cube_elliptic() -> DemoSpec:
    """A quadric-pair curve through the vertices of the unit cube."""
    field = FieldDescriptor.rationals()
    cage = axis_cage(field, [(0, 0, 0), (1, 1, 1)])
    start = cage.node((1, 1, 1))
    tangent = make_tangent(start, [(1, 2, 3)])
    variety = inscribe_with_tangent(cage, start, tangent)

    def tangent_read_back(interp: VerificationReport) -> CheckResult:
        again = tangent_at_node(variety, start)
        same = span_equal(
            SubspaceBasis(3, tangent.basis), SubspaceBasis(3, again.basis))
        return CheckResult("prescribed-tangent-read-back", same,
                           {"direction": [str(c.as_fraction())
                                          for c in tangent.basis[0]]})

    def smooth(interp: VerificationReport) -> CheckResult:
        rep = smoothness_check(variety)
        return CheckResult("curve-smooth-at-vertices", rep.passed,
                           {"s": variety.s})

    def automatic_vertex(interp: VerificationReport) -> CheckResult:
        # quadrics through seven vertices of the cube all pass through the
        # eighth: the supra selection misses exactly the node (2,2,2), and
        # the interpolation checks prove that every quadric through the
        # selection vanishes on all eight nodes
        supra = set(supra_simplicial_indices(2, 3).indices)
        missing = [i for i in all_indices(2, 3) if i not in supra]
        kernel = next(c for c in interp.checks if c.name == "kernel-dimension")
        return CheckResult(
            "eighth-vertex-automatic",
            missing == [(2, 2, 2)] and interp.passed,
            {"kernel-dim": kernel.details["kernel-dim"], "missing": missing})

    return DemoSpec(
        name="cube-elliptic",
        description="the curve cut by two independent quadric pencils "
                    "through all eight vertices of the cube, tangent to "
                    "direction (1,2,3) at the origin",
        notes=("The lambda rows are produced by inscribing with the "
               "prescribed tangent; any degree-2 surface through seven "
               "vertices automatically passes through the eighth.",),
        cage=cage,
        targets=tuple(
            (f"quadric-{r + 1}", variety.polynomials()[r], variety.rows[r])
            for r in range(variety.s)),
        extra_checks=(tangent_read_back, smooth, automatic_vertex),
    )


DEMO_BUILDERS = {
    "fermat-conic": demo_fermat_conic,
    "k3-quartic": demo_k3_quartic,
    "fermat-cubic-surface": demo_fermat_cubic,
    "cube-elliptic": demo_cube_elliptic,
}

DEMO_NAMES = tuple(DEMO_BUILDERS)


def build_demo(name: str) -> DemoSpec:
    try:
        builder = DEMO_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown demo {name!r}; available: {', '.join(DEMO_NAMES)}"
        ) from None
    return builder()


def run_demo(name: str) -> VerificationReport:
    """Build the named demo and certify everything it claims.

    Always runs cage validation and the interpolation check, then certifies
    each target polynomial against its documented pencil coefficients, then
    the demo's own extra checks, each given the interpolation report.
    """
    spec = build_demo(name)
    cage = spec.cage
    validation = cage.validate()
    checks = [CheckResult("validation", validation.valid,
                          {"node-count": validation.node_count})]
    interp = verify_supra_interpolation(cage)
    checks.extend(interp.checks)
    for label, target, lam in spec.targets:
        produced = cage.pencil(lam)
        same = produced == target
        checks.append(CheckResult(
            f"target-{label}-from-documented-lambda", same,
            {"lambda": [str(c) for c in lam]},
            None if same else produced - target))
        # a pencil is a combination of the group products by construction
        checks.append(CheckResult(
            f"target-{label}-in-group-span",
            same or complete_intersection_span_check([target], cage), {}))
    for extra in spec.extra_checks:
        checks.append(extra(interp))
    subject = dict(cage.summary())
    subject["demo"] = spec.name
    subject["description"] = spec.description
    subject["notes"] = list(spec.notes)
    return VerificationReport(subject, tuple(checks))
