"""JSON round trips for every exchangeable object, plus schema diagnostics."""

import json
import time
from fractions import Fraction

import pytest

from cagekit.cage import axis_cage, random_cage
from cagekit.errors import SchemaError
from cagekit.field import FieldDescriptor
from cagekit.inscribe import inscribe_with_tangent, make_tangent
from cagekit.serialize import (
    MAX_DEGREE,
    SCHEMA,
    cage_from_json,
    cage_to_json,
    configuration_from_json,
    configuration_to_json,
    field_from_json,
    field_to_json,
    nodes_to_json,
    poly_from_json,
    poly_to_json,
    report_to_json,
    scalar_from_json,
    scalar_to_json,
    tangent_to_json,
    variety_from_json,
    variety_to_json,
)
from cagekit.verify import independence_counterexample, run_suite
from cagekit.viete import Configuration

F = FieldDescriptor.rationals()
SQRT2 = FieldDescriptor.extension([-2, 0, 1], label="sqrt2",
                                  conjugation=[0, -1])


def rebuilt(obj):
    """Force a pass through actual JSON text, not just dict identity."""
    return json.loads(json.dumps(obj))


def same_forms(a, b):
    return all(fa.coeffs == fb.coeffs
               for ga, gb in zip(a.groups, b.groups)
               for fa, fb in zip(ga, gb))


# -- scalars and fields -------------------------------------------------------


def test_scalar_round_trip_rational():
    for value in [Fraction(3, 4), Fraction(-2), Fraction(0)]:
        blob = scalar_to_json(F.coerce(value))
        assert isinstance(blob, str)
        assert scalar_from_json(F, blob).as_fraction() == value
    assert scalar_to_json(F.coerce(Fraction(3, 4))) == "3/4"


def test_scalar_round_trip_extension():
    x = SQRT2.element([Fraction(1, 2), Fraction(-3)])
    blob = scalar_to_json(x)
    assert blob == ["1/2", "-3"]
    assert scalar_from_json(SQRT2, blob) == x


def test_scalar_errors_carry_paths():
    with pytest.raises(SchemaError) as err:
        scalar_from_json(F, 7, path="$.x")
    assert err.value.path == "$.x"
    with pytest.raises(SchemaError):
        scalar_from_json(F, "3/0")
    with pytest.raises(SchemaError):
        scalar_from_json(SQRT2, ["1"], path="$.x")
    with pytest.raises(SchemaError) as err:
        scalar_from_json(SQRT2, ["1", "oops"], path="$.x")
    assert err.value.path == "$.x[1]"


def test_exponent_literals_are_bounded():
    # Fraction alone would compute 10**999999999 and never return
    for text in ("1e999999999", "1e10000000", "-2.5E-4301", "1e0_0_9_9_9_9",
                 "1e+" + "9" * 20):
        started = time.perf_counter()
        with pytest.raises(SchemaError) as err:
            scalar_from_json(F, text, path="$.x")
        assert err.value.path == "$.x" and "exponent" in str(err.value)
        assert time.perf_counter() - started < 0.1
    with pytest.raises(SchemaError) as err:
        scalar_from_json(SQRT2, ["0", "1e999999999"], path="$.x")
    assert err.value.path == "$.x[1]"
    # the bound itself, and every other literal Fraction reads, still pass
    assert scalar_from_json(F, "1e4300").as_fraction() == 10 ** 4300
    assert scalar_from_json(F, "-1.5e-3").as_fraction() == Fraction(-3, 2000)
    assert scalar_from_json(F, " 2/3 ").as_fraction() == Fraction(2, 3)


def test_integer_literals_read_as_fraction_reads_them():
    # plain ASCII integers take int(); every other literal, unicode digits
    # and underscores included, still goes through Fraction
    corpus = ["0", "-0", "+0", "7", "-7", "+7", "007", "-000123",
              "123456789012345678901234567890", "-" + "9" * 4300,
              "1_000", "\u0661\u0662", "\uff11", " 12", "12 ", "1.0", "-3/4", "1e3"]
    for text in corpus:
        value = scalar_from_json(F, text).as_fraction()
        assert type(value) is Fraction and value == Fraction(text)
    for text in ("", "-", "+", "1-", "--1", "0x10", "1" * 4301):
        with pytest.raises(ValueError):
            Fraction(text)
        with pytest.raises(SchemaError) as err:
            scalar_from_json(F, text, path="$.x")
        assert err.value.path == "$.x"


def test_field_round_trip():
    assert field_from_json(rebuilt(field_to_json(F))) == F
    back = field_from_json(rebuilt(field_to_json(SQRT2)))
    assert back == SQRT2
    assert back.label == "sqrt2"
    assert back.conjugation == SQRT2.conjugation
    plain = FieldDescriptor.extension([1, 1, 1])
    assert field_from_json(rebuilt(field_to_json(plain))) == plain


def test_field_schema_errors():
    with pytest.raises(SchemaError) as err:
        field_from_json({"kind": "finite"})
    assert err.value.path == "$.field.kind"
    with pytest.raises(SchemaError):
        field_from_json({"kind": "extension", "min_poly": ["1", "1"]})
    with pytest.raises(SchemaError):
        field_from_json({"kind": "extension", "min_poly": ["1", "0", "2"]})
    with pytest.raises(SchemaError):
        field_from_json(["rationals"])
    # the label is echoed as subject.field in every report
    for label in (5, [1, {"a": 2}], None):
        with pytest.raises(SchemaError) as err:
            field_from_json({"kind": "extension", "min_poly": ["-2", "0", "1"],
                             "label": label})
        assert err.value.path == "$.field.label"
    # the split-prime scan grows with the degree, so a modulus past
    # MAX_DEGREE is refused before any scan, at its own path
    top = ["1"] + ["0"] * (MAX_DEGREE - 1) + ["1"]
    assert field_from_json({"kind": "extension", "min_poly": top}).degree \
        == MAX_DEGREE
    with pytest.raises(SchemaError) as err:
        field_from_json({"kind": "extension", "min_poly": ["1"] + top})
    assert err.value.path == "$.field.min_poly"
    assert str(MAX_DEGREE) in str(err.value)


# -- cages and nodes ----------------------------------------------------------


def test_cage_round_trip():
    cage = random_cage(6, 3, 2)
    blob = rebuilt(cage_to_json(cage))
    assert blob["schema"] == SCHEMA and blob["kind"] == "cage"
    back = cage_from_json(blob)
    assert (back.n, back.d) == (cage.n, cage.d)
    assert same_forms(back, cage)


def test_cage_round_trip_extension_field():
    t = SQRT2.generator()
    one, zero = SQRT2.one(), SQRT2.zero()
    cage = axis_cage(SQRT2, [(zero, zero), (t, one)])
    back = cage_from_json(rebuilt(cage_to_json(cage)))
    assert back.field == SQRT2
    assert same_forms(back, cage)


def test_cage_schema_errors():
    good = cage_to_json(random_cage(6, 2, 2))
    with pytest.raises(SchemaError) as err:
        cage_from_json({**good, "kind": "nodes"})
    assert err.value.path == "$.kind"
    with pytest.raises(SchemaError) as err:
        cage_from_json({**good, "d": 5})
    assert err.value.path == "$.d"
    with pytest.raises(SchemaError) as err:
        cage_from_json({**good, "n": 3})
    assert err.value.path == "$.n"
    with pytest.raises(SchemaError):
        cage_from_json({**good, "groups": []})
    broken = json.loads(json.dumps(good))
    broken["groups"][0][1] = ["0", "0", "0"]
    with pytest.raises(SchemaError) as err:
        cage_from_json(broken)
    assert err.value.path == "$.groups[0][1]"
    # a form with the wrong number of coordinates is reported at its path
    broken = json.loads(json.dumps(good))
    broken["groups"][1][0] = ["1", "2"]
    with pytest.raises(SchemaError) as err:
        cage_from_json(broken)
    assert err.value.path == "$.groups[1][0]"
    assert "forms must have 3 coordinates for n=2" in str(err.value)


def test_nodes_document():
    cage = random_cage(9, 2, 2)
    cage.validate()
    blob = rebuilt(nodes_to_json(cage))
    assert blob["kind"] == "nodes"
    assert len(blob["nodes"]) == 4
    first = blob["nodes"][0]
    assert first["index"] == [1, 1]
    assert all(isinstance(c, str) for c in first["point"])


# -- polynomials ----------------------------------------------------------------


def test_poly_round_trip():
    cage = random_cage(11, 3, 2)
    poly = cage.group_polynomial(0)
    blob = rebuilt(poly_to_json(poly))
    back = poly_from_json(F, blob)
    assert back.coefficient_vector() == poly.coefficient_vector()
    exps = [tuple(t["exp"]) for t in blob["terms"]]
    assert exps == sorted(exps, reverse=True)


def test_poly_schema_errors():
    with pytest.raises(SchemaError):
        poly_from_json(F, {"vars": 0, "degree": 2, "terms": []})
    with pytest.raises(SchemaError):
        poly_from_json(F, {"vars": 3, "degree": -1, "terms": []})
    with pytest.raises(SchemaError):
        poly_from_json(F, {"vars": 3, "degree": 2,
                           "terms": [{"exp": [2, 0, 0]}]})
    with pytest.raises(SchemaError):
        poly_from_json(F, {"vars": 3, "degree": 2,
                           "terms": [{"exp": [1, 0, 0], "coeff": "1"}]})


def test_poly_rejects_booleans():
    # JSON true loads as bool, which Python counts as an int
    term = json.loads('{"exp": [true, 1, 0], "coeff": "1"}')
    with pytest.raises(SchemaError) as exc:
        poly_from_json(F, {"vars": 3, "degree": 2, "terms": [term]})
    assert exc.value.path == "$.terms[0].exp"
    for key in ("vars", "degree"):
        obj = {"vars": 2, "degree": 1, "terms": [], key: True}
        with pytest.raises(SchemaError) as exc:
            poly_from_json(F, obj)
        assert exc.value.path == f"$.{key}"
    # the same for a cage's n and d, where True == 1 would match one group
    # holding one form
    for key in ("n", "d"):
        obj = {"kind": "cage", "field": {"kind": "rationals"},
               "groups": [[["1", "0"]]], key: True}
        with pytest.raises(SchemaError) as exc:
            cage_from_json(obj)
        assert exc.value.path == f"$.{key}"
    # and a variety's s, where True and 1.0 both equal a count of one row
    cage = axis_cage(F, [(0, 0), (1, 1)])
    node = cage.node((1, 1))
    blob = rebuilt(variety_to_json(
        inscribe_with_tangent(cage, node, make_tangent(node, [(1, 2)]))))
    for s in (True, 1.0):
        with pytest.raises(SchemaError) as exc:
            variety_from_json(dict(blob, s=s))
        assert exc.value.path == "$.s"


# -- varieties and tangents -------------------------------------------------------


def test_variety_round_trip():
    cage = axis_cage(F, [(0, 0), (1, 1)])
    cage.validate()
    node = cage.node((1, 1))
    variety = inscribe_with_tangent(cage, node, make_tangent(node, [(1, 2)]))
    blob = rebuilt(variety_to_json(variety))
    assert blob["s"] == 1
    assert blob["lambda"] == [["-2", "1"]]
    back = variety_from_json(blob)
    assert back.rows == variety.rows
    assert same_forms(back.cage, variety.cage)


def test_variety_schema_errors():
    cage = axis_cage(F, [(0, 0), (1, 1)])
    cage.validate()
    node = cage.node((1, 1))
    variety = inscribe_with_tangent(cage, node, make_tangent(node, [(1, 2)]))
    good = rebuilt(variety_to_json(variety))
    with pytest.raises(SchemaError) as err:
        variety_from_json({**good, "s": 2})
    assert err.value.path == "$.s"
    with pytest.raises(SchemaError):
        variety_from_json({**good, "lambda": [["1"]]})
    with pytest.raises(SchemaError):
        variety_from_json({**good, "lambda": []})
    # dependent rows and an all-zero row have rank below their count
    for rows in ([["1", "2"], ["2", "4"]], [["0", "0"]]):
        with pytest.raises(SchemaError) as err:
            variety_from_json({**good, "lambda": rows, "s": len(rows)})
        assert err.value.path == "$.lambda"
    bad_cage = json.loads(json.dumps(good))
    bad_cage["cage"]["groups"][0][1] = bad_cage["cage"]["groups"][0][0]
    with pytest.raises(SchemaError) as err:
        variety_from_json(bad_cage)
    assert err.value.path == "$.cage"
    # a zero divisor met by the lambda rank is reported at the rows
    with pytest.raises(SchemaError, match="reducible") as err:
        variety_from_json(ZERO_DIVISOR_LAMBDA)
    assert err.value.path == "$.lambda"


ZERO_DIVISOR_LAMBDA = {
    # x and y over Q[t]/(t^2 - 1) validate with d = 1, but the lambda row
    # (t - 1, t - 1) is a zero divisor: its rank depends on the factor
    "schema": SCHEMA, "kind": "variety",
    "cage": {"schema": SCHEMA, "kind": "cage",
             "field": {"kind": "extension", "min_poly": ["-1", "0", "1"]},
             "n": 2, "d": 1,
             "groups": [[[["1", "0"], ["0", "0"], ["0", "0"]]],
                        [[["0", "0"], ["1", "0"], ["0", "0"]]]]},
    "s": 1, "lambda": [[["-1", "1"], ["-1", "1"]]]}


def test_tangent_document():
    cage = axis_cage(F, [(0, 0), (1, 1)])
    cage.validate()
    node = cage.node((2, 2))
    tau = make_tangent(node, [(1, 2)])
    blob = rebuilt(tangent_to_json(tau))
    assert blob["kind"] == "tangent"
    assert blob["chart"] == 2
    assert blob["node"]["index"] == [2, 2]
    assert blob["basis"] == [["1", "2"]]


# -- configurations ----------------------------------------------------------------


def test_configuration_round_trip():
    config = Configuration(F, [(1, 3), (2, 4)])
    blob = rebuilt(configuration_to_json(config))
    back = configuration_from_json(blob)
    assert back.points == config.points


def test_configuration_schema_errors():
    good = configuration_to_json(Configuration(F, [(1, 3), (2, 4)]))
    with pytest.raises(SchemaError) as err:
        configuration_from_json({**good, "points": [["1", "2"], ["1", "3"]]})
    assert err.value.path == "$.points"
    with pytest.raises(SchemaError):
        configuration_from_json({**good, "kind": "cage"})
    with pytest.raises(SchemaError):
        configuration_from_json({**good, "points": []})


# -- reports ------------------------------------------------------------------------


def test_report_document():
    cage = random_cage(4, 2, 2)
    report = run_suite(cage)
    blob = rebuilt(report_to_json(report, elapsed=0.1234))
    assert blob["kind"] == "report" and blob["pass"] is True
    assert blob["elapsed_s"] == 0.123
    names = [c["name"] for c in blob["checks"]]
    assert "validation" in names[0]
    assert all(set(c) >= {"name", "pass", "details"} for c in blob["checks"])


def test_report_document_carries_witness():
    report = independence_counterexample()
    blob = rebuilt(report_to_json(report))
    witnessed = [c for c in blob["checks"] if "witness" in c]
    assert witnessed
    poly = poly_from_json(F, witnessed[0]["witness"])
    assert poly.degree == witnessed[0]["witness"]["degree"]
