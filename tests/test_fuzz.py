"""Property-based fuzzing of the JSON readers.

Every reader either returns an object or raises SchemaError carrying a JSON
path; no document makes it raise anything else.  The documents are built
near the schema, so that most of them get past the first check, with junk
and exponent literals mixed in at every level.  The hypothesis profile in
conftest.py makes the runs derandomized and bounded.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from cagekit.cage import axis_cage  # noqa: E402
from cagekit.errors import SchemaError  # noqa: E402
from cagekit.field import FieldDescriptor  # noqa: E402
from cagekit.serialize import (cage_from_json, cage_to_json,  # noqa: E402
                               configuration_from_json, field_from_json,
                               poly_from_json, variety_from_json)

Q = FieldDescriptor.rationals()
SQRT2 = FieldDescriptor.extension([-2, 0, 1], label="Q(sqrt2)")

LITERALS = st.sampled_from([
    "0", "1", "-1", "2", "1/2", "-7/3", "0.25", "3e2", "1E-3", "1e0_1",
    "1e999999999", "1e10000000", "-2.5e-4301", "1e4300", "1/0", "", " ",
    "x", "1//2", "nan", "inf", "1e", "٣"])
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
              st.floats(allow_nan=False), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=5), inner,
                                            max_size=3)),
    max_leaves=6)


def maybe(strategy):
    """Mostly the strategy's value, sometimes junk in its place."""
    return st.one_of(strategy, strategy, strategy, JUNK)


SCALARS = maybe(st.one_of(LITERALS, LITERALS.map(lambda s: s.strip() or "0"),
                          st.lists(LITERALS, min_size=2, max_size=3)))
MODULI = st.builds(lambda low, lead: low + [lead],
                   st.lists(maybe(LITERALS), min_size=1, max_size=3),
                   maybe(st.sampled_from(["1", "2", "1e999999999"])))
FIELDS = maybe(st.one_of(
    st.just({"kind": "rationals"}),
    st.fixed_dictionaries(
        {"kind": maybe(st.just("extension")), "min_poly": maybe(MODULI)},
        optional={"label": maybe(st.text(max_size=4)),
                  "conjugation": maybe(st.lists(SCALARS, max_size=3))})))
SMALL = maybe(st.integers(0, 3))
CAGES = st.fixed_dictionaries(
    {"kind": maybe(st.just("cage")), "field": FIELDS,
     "groups": maybe(st.lists(
         maybe(st.lists(maybe(st.lists(SCALARS, min_size=1, max_size=3)),
                        min_size=1, max_size=2)),
         min_size=1, max_size=2))},
    optional={"n": SMALL, "d": SMALL})
VALID_CAGE = cage_to_json(axis_cage(Q, [(0, 0), (1, 1)]))


def _mutated_cage(edit):
    doc = json.loads(json.dumps(VALID_CAGE))
    doc["groups"][edit[0] % 2][edit[1] % 2][edit[2] % 3] = edit[3]
    return doc


EMBEDDED_CAGES = st.one_of(
    CAGES, st.just(VALID_CAGE),
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2),
              SCALARS).map(_mutated_cage))


def reads_or_schema_error(reader, doc):
    try:
        reader(doc)
    except SchemaError as exc:
        assert exc.path.startswith("$")


@given(FIELDS)
def test_field_reader(doc):
    reads_or_schema_error(field_from_json, doc)


@given(CAGES)
def test_cage_reader(doc):
    reads_or_schema_error(cage_from_json, doc)


@given(st.sampled_from([Q, SQRT2]), st.fixed_dictionaries(
    {"kind": st.just("polynomial"), "vars": SMALL, "degree": SMALL,
     "terms": maybe(st.lists(maybe(st.fixed_dictionaries(
         {"exp": maybe(st.lists(maybe(st.integers(0, 3)), max_size=4)),
          "coeff": SCALARS})), max_size=3))}))
def test_poly_reader(field, doc):
    reads_or_schema_error(lambda d: poly_from_json(field, d), doc)


# a cage over Q[t]/(t^2 - 1) whose validation inverts the zero divisor t - 1
_ZERO, _ONE = ["0", "0"], ["1", "0"]
REDUCIBLE_VARIETY = {
    "kind": "variety", "lambda": [[_ONE, _ZERO]],
    "cage": {"kind": "cage",
             "field": {"kind": "extension", "min_poly": ["-1", "0", "1"]},
             "groups": [[[["-1", "1"], _ZERO, _ONE], [_ONE, _ZERO, _ZERO]],
                        [[_ZERO, _ONE, _ZERO], [_ZERO, _ONE, ["-1", "0"]]]]}}


@example(REDUCIBLE_VARIETY)
@given(st.fixed_dictionaries(
    {"kind": maybe(st.just("variety")), "cage": EMBEDDED_CAGES,
     "lambda": maybe(st.lists(maybe(st.lists(SCALARS, min_size=2,
                                             max_size=2)), max_size=2))},
    optional={"s": SMALL}))
def test_variety_reader(doc):
    reads_or_schema_error(variety_from_json, doc)


@given(st.fixed_dictionaries(
    {"kind": maybe(st.just("configuration")), "field": FIELDS,
     "points": maybe(st.lists(maybe(st.lists(SCALARS, min_size=1,
                                             max_size=3)), max_size=3))}))
def test_configuration_reader(doc):
    reads_or_schema_error(configuration_from_json, doc)
