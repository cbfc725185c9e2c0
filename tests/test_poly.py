"""Homogeneous polynomial algebra: bases, products, evaluation, gradients."""

import random
from fractions import Fraction
from math import comb

import pytest

import oracles
from cagekit import (FieldDescriptor, HomogPoly, InvalidPointError, LinearForm,
                     ShapeError, monomial_basis, product_of_linear_forms)


Q = FieldDescriptor.rationals()


def test_monomial_basis_counts():
    assert len(monomial_basis(2, 3)) == 6
    assert len(monomial_basis(4, 4)) == 35
    assert len(monomial_basis(3, 4)) == 20


def test_monomial_basis_is_descending_lex():
    for degree, nv in [(2, 3), (3, 2), (4, 4), (0, 3), (5, 3)]:
        basis = monomial_basis(degree, nv)
        expect = sorted(oracles.monomial_exponents(degree, nv), reverse=True)
        assert list(basis) == expect
        assert len(basis) == comb(degree + nv - 1, nv - 1)


def test_monomial_basis_leading_entries():
    assert monomial_basis(2, 3)[0] == (2, 0, 0)
    assert monomial_basis(2, 3)[-1] == (0, 0, 2)


def test_linear_form_rejects_zero():
    with pytest.raises(ValueError):
        LinearForm(Q, [0, 0, 0])


def test_product_single_form():
    form = LinearForm(Q, [1, 2, 3])
    poly = product_of_linear_forms([form])
    assert poly.degree == 1
    assert poly == form.to_poly()


def test_product_difference_of_squares():
    # (x - z)(x + z) = x^2 - z^2
    a = LinearForm(Q, [1, 0, -1])
    b = LinearForm(Q, [1, 0, 1])
    poly = product_of_linear_forms([a, b])
    assert poly.terms == {(2, 0, 0): Q.one(), (0, 0, 2): Q.from_rational(-1)}


def test_product_cube_roots_of_unity():
    # prod_k (u + w^k v) = u^3 + v^3 when w is a primitive cube root of 1
    cyclo = FieldDescriptor.extension([1, 1, 1], label="Q(w)")
    w = cyclo.generator()
    one = cyclo.one()
    forms = [LinearForm(cyclo, [one, one]),
             LinearForm(cyclo, [one, w]),
             LinearForm(cyclo, [one, w * w])]
    poly = product_of_linear_forms(forms)
    assert poly.terms == {(3, 0): one, (0, 3): one}


def test_empty_product_rejected():
    with pytest.raises(ValueError):
        product_of_linear_forms([])


def test_evaluate_pythagorean():
    p = HomogPoly(Q, 3, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
    assert p.evaluate([3, 4, 5]).is_zero()


def test_evaluate_homogeneity():
    rng = random.Random(31)
    for _ in range(20):
        vec = [rng.randint(-5, 5) for _ in range(10)]
        p = HomogPoly.from_coefficients(Q, 3, 3, vec)
        pt = [rng.randint(-4, 4) for _ in range(3)]
        if all(x == 0 for x in pt):
            pt[0] = 1
        c = rng.randint(1, 5)
        scaled = p.evaluate([c * x for x in pt])
        assert scaled == p.evaluate(pt) * Q.from_rational(c ** 3)


def test_evaluate_rejects_zero_point():
    p = HomogPoly(Q, 3, 2, {(2, 0, 0): 1})
    with pytest.raises(InvalidPointError):
        p.evaluate([0, 0, 0])


def test_product_evaluation_factorizes():
    rng = random.Random(8)
    for _ in range(25):
        forms = []
        while len(forms) < 3:
            coeffs = [rng.randint(-4, 4) for _ in range(3)]
            if any(coeffs):
                forms.append(LinearForm(Q, coeffs))
        poly = product_of_linear_forms(forms)
        pt = [rng.randint(-3, 3) for _ in range(3)]
        if all(x == 0 for x in pt):
            pt[1] = 2
        expect = Q.one()
        for f in forms:
            expect = expect * f.evaluate([Q.from_rational(x) for x in pt])
        assert poly.evaluate(pt) == expect


def test_jacobian_cone():
    p = HomogPoly(Q, 3, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1})
    assert oracles.gradient(p.terms, [3, 4, 5]) == [6, 8, -10]


def test_euler_identity():
    rng = random.Random(19)
    for degree in (1, 2, 3, 4):
        dim = len(monomial_basis(degree, 3))
        p = HomogPoly.from_coefficients(
            Q, 3, degree, [rng.randint(-5, 5) for _ in range(dim)])
        pt = [Q.from_rational(rng.randint(-4, 4)) for _ in range(3)]
        if all(x.is_zero() for x in pt):
            pt[2] = Q.one()
        acc = Q.zero()
        for g, x in zip(oracles.gradient(p.terms, pt), pt):
            acc = acc + g * x
        assert acc == p.evaluate(pt) * Q.from_rational(degree)


def test_coefficient_vector_roundtrip():
    rng = random.Random(53)
    dim = len(monomial_basis(3, 4))
    vec = [rng.randint(-7, 7) for _ in range(dim)]
    p = HomogPoly.from_coefficients(Q, 4, 3, vec)
    assert [c.as_fraction() for c in p.coefficient_vector()] == vec


def test_mixed_degree_terms_rejected():
    with pytest.raises(ValueError):
        HomogPoly(Q, 2, 2, {(1, 0): 1})


def test_add_same_space_only():
    p = HomogPoly(Q, 3, 2, {(2, 0, 0): 1})
    q = HomogPoly(Q, 3, 3, {(3, 0, 0): 1})
    with pytest.raises(ShapeError):
        p + q
