"""Scalar arithmetic: rationals and simple extensions Q[t]/(m)."""

import itertools
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

import oracles
from cagekit import demos, linalg
from cagekit import (FieldDescriptor, FieldElement, FieldMismatchError,
                     NotInvertibleError, ReducibleModulusError)


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


@pytest.mark.parametrize("number", [1.0, 1 + 0j, Decimal(1)],
                         ids=["float", "complex", "Decimal"])
def test_equality_with_other_numbers_ignores_the_order(number):
    # a rational value compares with any number as its Fraction does, so a
    # set's size is the same for every insertion order
    for order in itertools.permutations([1, Q.one(), number, SQRT2.one()]):
        assert len(set(order)) == 1, order
    assert Q.one() == number and number == Q.one()
    assert SQRT2.generator() != number and number != SQRT2.generator()
    assert SQRT2.generator() != 1.4142135623730951


def test_equality_with_floats_follows_the_fraction():
    half = Q.from_rational(Fraction(1, 2))
    assert half == 0.5 and 0.5 == half and hash(half) == hash(0.5)
    assert SQRT2.from_rational(Fraction(1, 2)) == 0.5
    assert half != 0.1 and Q.from_rational(Fraction(1, 10)) != 0.1
    for special in [float("nan"), float("inf"), float("-inf"),
                    complex("nan"), Decimal("NaN"), Decimal("Infinity")]:
        for x in (Q.zero(), Q.one(), half, SQRT2.generator()):
            assert x != special and special != x
            assert not x == special and not special == x


@pytest.mark.parametrize("field, coeffs", [
    (Q, (1, 2)), (Q, ()), (SQRT2, (1,)), (SQRT2, (1, 0, 0))],
    ids=["Q-two", "Q-none", "sqrt2-one", "sqrt2-three"])
def test_elements_need_one_coefficient_per_degree(field, coeffs):
    message = (f"expected {field.degree} coefficients, "
               f"got {len(coeffs)}")
    with pytest.raises(ValueError, match=message):
        FieldElement(field, coeffs)
    with pytest.raises(ValueError, match=message):
        field.element(coeffs)


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


# the number-field demos' fields, Q(sqrt2), and a modulus and a conjugation
# with denominators
KERNEL_FIELDS = [demos.quartic_roots_field()[0], demos.cubic_roots_field()[0],
                 SQRT2, FieldDescriptor.extension(
                     [Fraction(1, 3), Fraction(-2, 5), 0, Fraction(7, 2), 1],
                     label="dens", conjugation=[Fraction(1, 2), -1, 0,
                                                Fraction(-3, 7)])]


def random_element(rng, field):
    """A random element, dense, sparse, rational or zero."""
    shape = rng.random()
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
              if shape < 0.5 or rng.random() < 0.3 else 0
              for _ in range(field.degree)]
    if shape > 0.9:
        coeffs[1:] = [0] * (field.degree - 1)
    return field.element(coeffs)


# a denominator the numeric hash cannot invert, and a value whose hash
# computes to -1, which Python's hash turns into -2
HASH_EDGES = [Fraction(3, 2 ** 61 - 1), Fraction(-(2 ** 61 + 1), 2), -1]


def random_rational(rng):
    """A random int or Fraction: zero, small, or of many digits."""
    shape = rng.random()
    if shape < 0.1:
        return 0
    if shape < 0.3:
        return rng.randint(-50, 50)
    if shape < 0.7:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 40))
    return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 20))


def rational_elements(rng, x):
    """x as an element of Q, built each way the package builds one:
    from_rational, element, coerce, FieldElement and linalg._divided of a
    multiple over a negative lead."""
    x = Fraction(x)
    k = rng.randint(1, 9)
    return [Q.from_rational(x), Q.element([x]), Q.coerce(x),
            FieldElement(Q, (x,)),
            linalg._divided(Q, [-k * x.numerator], -k * x.denominator)[0]]


def rational_results(rng):
    """(element, [Fraction]) pairs: every operation on elements of Q built
    each way, with what Fraction arithmetic gives."""
    x, y = random_rational(rng), random_rational(rng)
    results = []
    for a, b in zip(rational_elements(rng, x), rational_elements(rng, y)):
        results += [(a, [x]), (b, [y]), (a + b, [x + y]), (a - b, [x - y]),
                    (-a, [-x]), (a * b, [x * y]),
                    (a * 3 + Fraction(1, 2), [3 * x + Fraction(1, 2)])]
        if y:
            results.append((a / b, [Fraction(x) / y]))
        if x:
            results.append((a.inverse(), [1 / Fraction(x)]))
    return results


@pytest.mark.parametrize("field", [Q] + KERNEL_FIELDS,
                         ids=lambda f: f.label)
def test_integer_kernels_match_the_fraction_oracle(field):
    # + - * / conjugate inverse on integer numerators over one denominator
    # give the Fraction oracle's coefficients, in lowest terms; over Q the
    # oracle is Fraction arithmetic, and an element is equal to, and
    # hashes like, its int or Fraction, survives pickling, and equals the
    # same rational in an extension
    rng = random.Random(field.degree)
    modulus = field.min_poly
    for trial in range(40):
        if field == Q:
            results = rational_results(rng)
            if trial < len(HASH_EDGES):
                results += [(e, [e.as_fraction()]) for e in
                            rational_elements(rng, HASH_EDGES[trial])]
        else:
            a, b = random_element(rng, field), random_element(rng, field)
            x, y = list(a.coeffs), list(b.coeffs)
            mixed = [3 * p for p in x]
            mixed[0] += Fraction(1, 2)
            results = [(a + b, [p + q for p, q in zip(x, y)]),
                       (a - b, [p - q for p, q in zip(x, y)]),
                       (-a, [-p for p in x]),
                       (a * 3 + Fraction(1, 2), mixed),
                       (a * b, oracles.reduced_product(x, y, modulus)),
                       (a.conjugate(),
                        oracles.conjugate(x, field.conjugation, modulus))]
            if not a.is_zero():
                results.append((a.inverse(), oracles.inverse(x, modulus)[1]))
        for got, expect in results:
            assert list(got.coeffs) == expect
            assert got._den > 0 and gcd(got._den, *got._num) == 1
            # the same value built from Fractions is equal and hashes alike
            for built in (field.element(expect),
                          FieldElement(field, tuple(expect))):
                assert built == got and got == built
                assert hash(built) == hash(got)
                assert built * 1 == got and list(built.coeffs) == expect
            if field != Q:
                continue
            [value] = expect
            assert got.coeffs == (value,)
            assert got == value and value == got and got != value + 1
            assert (got == value.numerator) == (value.denominator == 1)
            assert hash(got) == hash(value)
            assert got == SQRT2.from_rational(value) == got
            assert got != SQRT2.generator() and SQRT2.generator() != got
            back = pickle.loads(pickle.dumps(got))
            assert back == got and back.field == Q
            assert (back._num, back._den) == (got._num, got._den)


def test_rational_values_hash_like_their_fraction_in_every_field():
    rng = random.Random(5)
    for _ in range(20):
        value = Fraction(rng.choice([-1, 1]) * rng.randint(1, 50),
                         rng.randint(1, 30))
        seen = {value: "value"}
        for field in [Q] + KERNEL_FIELDS:
            x = random_element(rng, field)
            reached = x * 2 - x - x + value
            assert reached.is_rational() and reached.as_fraction() == value
            assert reached == value and reached == field.from_rational(value)
            assert hash(reached) == hash(value)
            assert seen[reached] == "value"
            assert reached == Q.from_rational(value) == reached.inverse(
                ).inverse()
            assert reached != value + Fraction(1, 7)


def test_zero_divisors_raise_with_the_gcd_degree():
    # over (t^2+1)(t^2-2) a multiple of t^2+1 shares a quadratic factor
    # with the modulus, over t^2 - 1 and (t-1)(t^3+2) a multiple of t-1 a
    # linear one
    for modulus, coeffs, degree in (([-1, 0, 1], [-1, 1], 1),
                                    ([-1, 0, 1], [1, 1], 1),
                                    ([-2, 0, -1, 0, 1], [2, 3, 2, 3], 2),
                                    ([-2, 0, -1, 0, 1], [1, 0, -2, 0], 0),
                                    ([-2, 2, 0, -1, 1], [-5, 4, 1, 0], 1)):
        field = FieldDescriptor.extension(modulus)
        x = field.element(coeffs)
        gcd_degree, inverse = oracles.inverse(coeffs, modulus)
        assert gcd_degree == degree
        if degree:
            with pytest.raises(ReducibleModulusError,
                               match=f"witness gcd degree {degree}$"):
                x.inverse()
        else:
            assert list(x.inverse().coeffs) == inverse
    # a nonzero rational is a unit, the modulus reducible or not
    bad = FieldDescriptor.extension([-1, 0, 1])
    assert bad.from_rational(-3).inverse() == Fraction(-1, 3)


def test_mod_p_fails_exactly_when_p_divides_a_denominator():
    rng = random.Random(17)
    for field in KERNEL_FIELDS:
        for _ in range(30):
            x = random_element(rng, field)
            for p in (2, 3, 5, 7, 11, 13):
                if any(c.denominator % p == 0 for c in x.coeffs):
                    with pytest.raises(ValueError):
                        linalg._mod_p(x, p)
                else:
                    assert linalg._mod_p(x, p) == [
                        c.numerator * pow(c.denominator, -1, p) % p
                        for c in x.coeffs]


def test_hashing_an_extension_element_hashes_no_fraction(monkeypatch):
    # the descriptor holds its hash, computed once, and an element with a
    # t-part hashes its integer numerators
    field = KERNEL_FIELDS[0]
    x = field.generator() * 3 + Fraction(1, 2)
    twin = FieldDescriptor.extension(field.min_poly,
                                     conjugation=field.conjugation)
    expected = hash(x), hash(field)
    assert hash(twin) == hash(field)

    def forbidden(self):
        raise AssertionError("a Fraction was hashed")
    monkeypatch.setattr(Fraction, "__hash__", forbidden)
    assert (hash(x), hash(field)) == expected


def test_pickled_descriptors_and_elements_round_trip():
    for field in [Q] + KERNEL_FIELDS:
        x = field.from_rational(Fraction(2, 3)) + (
            field.generator() * 5 if field.degree > 1 else 0)
        back_field, back_x = pickle.loads(pickle.dumps((field, x)))
        assert back_field == field and hash(back_field) == hash(field)
        assert back_x == x and hash(back_x) == hash(x)
        assert back_x * back_x == x * x


def test_modulus_shape_errors():
    with pytest.raises(ValueError):
        FieldDescriptor.extension([1, 1])  # degree < 2
    with pytest.raises(ValueError):
        FieldDescriptor.extension([-2, 0, 2])  # not monic
