"""Scalar arithmetic: rationals and simple extensions Q[t]/(m)."""

import random
from fractions import Fraction

import pytest

import oracles
from cagekit import demos
from cagekit import (FieldDescriptor, FieldMismatchError, NotInvertibleError,
                     ReducibleModulusError)


Q = FieldDescriptor.rationals()
SQRT2 = FieldDescriptor.extension([-2, 0, 1], label="Q(sqrt2)",
                                  conjugation=[0, -1])
GAUSS = FieldDescriptor.extension([1, 0, 1], label="Q(i)",
                                  conjugation=[0, -1])


def test_ext_inverse_generator_sqrt2():
    t = SQRT2.generator()
    assert t.inverse() == SQRT2.element([0, Fraction(1, 2)])


def test_ext_inverse_identity():
    for field in (Q, SQRT2, GAUSS):
        assert field.one().inverse() == field.one()


def test_ext_inverse_one_plus_i():
    t = GAUSS.generator()
    inv = (1 + t).inverse()
    assert inv == GAUSS.element([Fraction(1, 2), Fraction(-1, 2)])
    assert (1 + t) * inv == GAUSS.one()


def test_ext_inverse_zero():
    with pytest.raises(NotInvertibleError):
        SQRT2.zero().inverse()


def test_reducible_modulus_detected():
    # t^2 - 1 factors; t - 1 shares a factor with it and cannot invert
    bad = FieldDescriptor.extension([-1, 0, 1], label="Q[t]/(t^2-1)")
    t = bad.generator()
    with pytest.raises(ReducibleModulusError):
        (t - 1).inverse()


def test_mul_reduces_modulo():
    t = GAUSS.generator()
    assert (t + 1) * (t - 1) == GAUSS.from_rational(-2)
    assert t * t == GAUSS.from_rational(-1)


def test_mul_matches_polynomial_oracle():
    field = FieldDescriptor.extension([2, -1, 0, 3, 1], label="deg4")
    rng = random.Random(23)
    for _ in range(60):
        a = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(4)])
        b = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(4)])
        expect = oracles.poly_mod_mul(a.coeffs, b.coeffs,
                                      [2, -1, 0, 3, 1])
        assert list((a * b).coeffs) == expect


def test_ring_axioms_random_triples():
    rng = random.Random(7)
    elems = [SQRT2.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                            for _ in range(2)]) for _ in range(45)]
    triples = 0
    for a in elems:
        for b in elems:
            c = elems[(triples * 7) % len(elems)]
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            triples += 1
            if triples >= 1000:
                return
    raise AssertionError("not enough triples generated")


def test_inverse_roundtrip_500():
    rng = random.Random(13)
    field = FieldDescriptor.extension([5, 0, -2, 1], label="deg3")
    one = field.one()
    count = 0
    while count < 500:
        x = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                           for _ in range(3)])
        if x.is_zero():
            continue
        assert x * x.inverse() == one
        count += 1


def test_pow():
    t = SQRT2.generator()
    assert t ** 2 == 2
    assert t ** 0 == SQRT2.one()
    assert t ** -2 == SQRT2.from_rational(Fraction(1, 2))


def test_division():
    t = SQRT2.generator()
    assert (t / t) == SQRT2.one()
    assert ((t + 2) / (t + 2)) == SQRT2.one()
    assert (2 / t) == t  # 2/sqrt2 = sqrt2


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        SQRT2.generator() + GAUSS.generator()
    # equality degrades to False instead of raising, except for rational
    # values, which compare by value across fields
    assert (SQRT2.generator() == GAUSS.generator()) is False
    assert (SQRT2.one() == GAUSS.one()) is True


def test_hash_agrees_with_equality_on_rationals():
    # an element equal to an int or Fraction must hash like it
    assert Q.one() == 1
    assert len({Q.one(), 1}) == 1
    assert len({SQRT2.one(), 1}) == 1
    half = SQRT2.from_rational(Fraction(1, 2))
    assert {Fraction(1, 2): "half"}[half] == "half"
    assert {Fraction(1, 2): "half"}[Q.from_rational(Fraction(1, 2))] == "half"
    # irrational elements still hash by field and coefficients
    t = SQRT2.generator()
    assert len({t, SQRT2.element([0, 1])}) == 1


def test_equality_is_transitive_across_fields():
    # Q.one() == 1 == SQRT2.one(), so Q.one() == SQRT2.one() as well, and a
    # set's size does not depend on the insertion order
    assert Q.one() == SQRT2.one() and SQRT2.one() == Q.one()
    assert len({1, Q.one(), SQRT2.one()}) == 1
    assert len({Q.one(), SQRT2.one(), 1}) == 1
    assert Q.from_rational(Fraction(1, 2)) != SQRT2.one()
    assert SQRT2.generator() != GAUSS.generator()
    with pytest.raises(FieldMismatchError):
        Q.one() + SQRT2.one()
    with pytest.raises(FieldMismatchError):
        Q.one() * SQRT2.one()


def test_conjugation_involution_and_homomorphism():
    rng = random.Random(3)
    for field in (SQRT2, GAUSS):
        for _ in range(30):
            a = field.element([rng.randint(-5, 5) for _ in range(2)])
            b = field.element([rng.randint(-5, 5) for _ in range(2)])
            assert a.conjugate().conjugate() == a
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@pytest.mark.parametrize("builder", [demos.quartic_roots_field,
                                     demos.cubic_roots_field])
def test_conjugate_is_horner_at_the_conjugate_of_t(builder):
    # conjugation is a linear map on coefficient vectors; the oracle
    # evaluates the coefficient polynomial at sigma(t) by Horner's rule
    field = builder()[0]
    rng = random.Random(field.degree)
    for _ in range(6):
        x = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                           if rng.random() < 0.8 else 0
                           for _ in range(field.degree)])
        assert list(x.conjugate().coeffs) == oracles.horner(
            x.coeffs, field.conjugation, field.min_poly)


def test_conjugation_fixes_rationals():
    x = SQRT2.from_rational(Fraction(7, 3))
    assert x.conjugate() == x


def test_conjugate_without_data():
    plain = FieldDescriptor.extension([-2, 0, 1])
    with pytest.raises(ValueError):
        plain.generator().conjugate()


def test_as_fraction():
    assert SQRT2.from_rational(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        SQRT2.generator().as_fraction()


def test_coerce_rejects_foreign_elements():
    with pytest.raises(FieldMismatchError):
        SQRT2.coerce(GAUSS.generator())


def test_descriptor_equality_ignores_label():
    other = FieldDescriptor.extension([-2, 0, 1], label="renamed",
                                      conjugation=[0, -1])
    assert other == SQRT2
    assert hash(other) == hash(SQRT2)
    assert Q != SQRT2
    # the conjugation is part of the field's identity
    plain = FieldDescriptor.extension([-2, 0, 1], label="Q(sqrt2)")
    flipped = FieldDescriptor.extension([1, 0, 1], conjugation=[0, 1])
    assert plain != SQRT2 and flipped != GAUSS
    assert FieldDescriptor.extension([1, 0, 1]) != GAUSS
    with pytest.raises(FieldMismatchError):
        plain.generator() + SQRT2.generator()
    with pytest.raises(FieldMismatchError):
        SQRT2.coerce(plain.generator())
    assert plain.generator() != SQRT2.generator()


def test_equal_descriptors_that_are_distinct_objects():
    # equality tests identity first; equal descriptors built apart still
    # compare equal both ways, hash alike and mix their elements
    for field, twin in ((Q, FieldDescriptor.rationals()),
                        (SQRT2, FieldDescriptor.extension(
                            [-2, 0, 1], label="Q(sqrt2)",
                            conjugation=[Fraction(0), Fraction(-1)]))):
        assert twin is not field
        assert field == field and twin == field and field == twin
        assert not field != twin
        assert hash(twin) == hash(field)
        assert len({field, twin}) == 1
        x, y = field.from_rational(3), twin.from_rational(Fraction(1, 2))
        assert x * y == field.from_rational(Fraction(3, 2))
        assert twin.coerce(x) is x
    assert Q != SQRT2 and Q != "Q" and SQRT2 != None  # noqa: E711


def test_modulus_shape_errors():
    with pytest.raises(ValueError):
        FieldDescriptor.extension([1, 1])  # degree < 2
    with pytest.raises(ValueError):
        FieldDescriptor.extension([-2, 0, 2])  # not monic
