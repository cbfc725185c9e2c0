"""JSON round-tripping for every exchangeable object, schema tag cagekit/1.

Scalars are exact: a rational serializes as the string "p/q" (or "p"), an
extension element as the list of its coefficient strings, low degree first.
All readers validate shape and report failures with a JSON-path location.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Any

from .cage import Cage, Node
from .errors import ReducibleModulusError, SchemaError
from .field import FieldDescriptor, FieldElement, RationalLike
from .inscribe import LambdaMatrix, TangentSubspace
from .linalg import Matrix, rank
from .poly import HomogPoly, LinearForm
from .verify import CheckResult, VerificationReport
from .viete import Configuration

SCHEMA = "cagekit/1"


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise SchemaError(path, message)


def _is_int(x) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


# Fraction("1e999999999") would compute 10**999999999.  A plain digit
# string is already bounded, since int() refuses more than 4300 digits; the
# same bound on the exponent keeps an exponent literal to that size.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
# an ASCII integer literal, the common case, which int() reads faster than
# Fraction's parser and to the same value
_INTEGER = re.compile(r"[-+]?[0-9]+\Z")
# The split-prime scan (linalg._split_prime) takes x^p mod m at up to
# linalg.SPLIT_SCAN primes, a cost that grows faster than deg m: a modulus
# of degree 32 with no split prime scans in about 1.4 s on a 2-core
# machine with CPython 3.11.7.  The demos use degree 8 at most.
MAX_DEGREE = 32


def parse_rational(text: Any, path: str) -> Fraction:
    """A rational literal as Fraction accepts it ("p/q", "p", decimal,
    exponent), with the exponent bounded; any other input raises
    SchemaError at `path`, a JSON path or an option name."""
    return Fraction(_literal(text, path))


def _literal(text: Any, path: str) -> RationalLike:
    """parse_rational's value, as an int for an integer literal."""
    _expect(isinstance(text, str), path, "scalar must be a string")
    integer = _INTEGER.match(text) is not None
    exponent = None if integer else _EXPONENT.search(text)
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        _expect(len(digits) <= len(str(MAX_EXPONENT))
                and int(digits or "0") <= MAX_EXPONENT, path,
                f"exponent of {text[:40]!r} exceeds {MAX_EXPONENT}")
    try:
        return int(text) if integer else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, f"bad rational literal {text[:40]!r}") \
            from exc


# -- scalars -----------------------------------------------------------------

def _ratio_text(x: int, den: int) -> str:
    """str(Fraction(x, den)), "p" or "p/q", for den > 0 and gcd 1."""
    return str(x) if den == 1 else f"{x}/{den}"


def scalar_to_json(x: FieldElement):
    # a rational's numerator and denominator are in lowest terms, a
    # coefficient of an extension element may share a factor with den
    if x.field.kind == "rationals":
        return _ratio_text(x._num[0], x._den)
    texts = []
    for c in x._num:
        g = gcd(c, x._den)
        texts.append(_ratio_text(c // g, x._den // g))
    return texts


def scalar_from_json(field: FieldDescriptor, obj, path: str = "$"
                     ) -> FieldElement:
    if field.kind == "rationals":
        return field.from_rational(_literal(obj, path))
    _expect(isinstance(obj, list), path,
            "extension scalar must be a coefficient list")
    _expect(len(obj) == field.degree, path,
            f"expected {field.degree} coefficients, got {len(obj)}")
    return field.element([_literal(c, f"{path}[{i}]")
                          for i, c in enumerate(obj)])


# -- field descriptors -------------------------------------------------------

def field_to_json(field: FieldDescriptor) -> dict:
    if field.kind == "rationals":
        return {"kind": "rationals"}
    out = {"kind": "extension",
           "min_poly": [str(c) for c in field.min_poly],
           "label": field.label}
    if field.conjugation is not None:
        out["conjugation"] = [str(c) for c in field.conjugation]
    return out


def field_from_json(obj, path: str = "$.field") -> FieldDescriptor:
    _expect(isinstance(obj, dict), path, "field must be an object")
    kind = obj.get("kind")
    if kind == "rationals":
        return FieldDescriptor.rationals()
    _expect(kind == "extension", f"{path}.kind",
            f"unknown field kind {kind!r}")
    mp = obj.get("min_poly")
    _expect(isinstance(mp, list) and 2 < len(mp) <= MAX_DEGREE + 1,
            f"{path}.min_poly", f"min_poly must have degree 2 to {MAX_DEGREE}")
    min_poly = [parse_rational(c, f"{path}.min_poly[{i}]")
                for i, c in enumerate(mp)]
    conj = obj.get("conjugation")
    conjugation = None
    if conj is not None:
        _expect(isinstance(conj, list), f"{path}.conjugation",
                "conjugation must be a list")
        conjugation = [parse_rational(c, f"{path}.conjugation[{i}]")
                       for i, c in enumerate(conj)]
    label = obj.get("label", "")
    _expect(isinstance(label, str), f"{path}.label", "label must be a string")
    try:
        return FieldDescriptor.extension(
            min_poly, label=label, conjugation=conjugation)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


# -- cages and nodes ---------------------------------------------------------

def cage_to_json(cage: Cage) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "cage",
        "field": field_to_json(cage.field),
        "n": cage.n,
        "d": cage.d,
        "groups": [[[scalar_to_json(c) for c in form.coeffs]
                    for form in group] for group in cage.groups],
    }


def cage_from_json(obj, path: str = "$") -> Cage:
    _expect(isinstance(obj, dict), path, "cage must be an object")
    _expect(obj.get("kind") == "cage", f"{path}.kind", "expected kind 'cage'")
    field = field_from_json(obj.get("field"), f"{path}.field")
    groups_obj = obj.get("groups")
    _expect(isinstance(groups_obj, list) and groups_obj, f"{path}.groups",
            "groups must be a nonempty list")
    groups = []
    for j, group in enumerate(groups_obj):
        gpath = f"{path}.groups[{j}]"
        _expect(isinstance(group, list) and group, gpath,
                "color group must be a nonempty list")
        forms = []
        for i, coeffs in enumerate(group):
            fpath = f"{gpath}[{i}]"
            _expect(isinstance(coeffs, list), fpath,
                    "form must be a coefficient list")
            values = [scalar_from_json(field, c, f"{fpath}[{k}]")
                      for k, c in enumerate(coeffs)]
            try:
                forms.append(LinearForm(field, values))
            except ValueError as exc:
                raise SchemaError(fpath, str(exc)) from exc
        groups.append(forms)
    n = obj.get("n", len(groups))
    d = obj.get("d", len(groups[0]))
    _expect(_is_int(n), f"{path}.n", "n must be an integer")
    _expect(_is_int(d), f"{path}.d", "d must be an integer")
    _expect(n == len(groups), f"{path}.n",
            f"n={n} but {len(groups)} groups present")
    _expect(all(d == len(g) for g in groups), f"{path}.d",
            f"d={d} but group sizes are {[len(g) for g in groups]}")
    for j, group in enumerate(groups):
        for i, form in enumerate(group):
            _expect(form.num_vars == n + 1, f"{path}.groups[{j}][{i}]",
                    f"forms must have {n + 1} coordinates for n={n}")
    try:
        return Cage(field, groups)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def node_to_json(node: Node) -> dict:
    return {"index": list(node.index),
            "point": [scalar_to_json(c) for c in node.point]}


def nodes_to_json(cage: Cage) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "nodes",
        "field": field_to_json(cage.field),
        "n": cage.n,
        "d": cage.d,
        "nodes": [node_to_json(nd) for nd in cage.nodes()],
    }


# -- polynomials --------------------------------------------------------------

def poly_to_json(poly: HomogPoly) -> dict:
    terms = sorted(poly.terms.items(), reverse=True)
    return {
        "kind": "polynomial",
        "vars": poly.num_vars,
        "degree": poly.degree,
        "terms": [{"exp": list(e), "coeff": scalar_to_json(c)}
                  for e, c in terms],
    }


def poly_from_json(field: FieldDescriptor, obj, path: str = "$") -> HomogPoly:
    _expect(isinstance(obj, dict), path, "polynomial must be an object")
    nv = obj.get("vars")
    degree = obj.get("degree")
    _expect(_is_int(nv) and nv >= 1, f"{path}.vars",
            "vars must be a positive integer")
    _expect(_is_int(degree) and degree >= 0, f"{path}.degree",
            "degree must be a nonnegative integer")
    terms_obj = obj.get("terms", [])
    _expect(isinstance(terms_obj, list), f"{path}.terms",
            "terms must be a list")
    terms = {}
    for i, term in enumerate(terms_obj):
        tpath = f"{path}.terms[{i}]"
        _expect(isinstance(term, dict) and "exp" in term and "coeff" in term,
                tpath, "term needs exp and coeff")
        exp = term["exp"]
        _expect(isinstance(exp, list) and all(_is_int(e) for e in exp),
                f"{tpath}.exp", "exp must be an integer list")
        terms[tuple(exp)] = scalar_from_json(field, term["coeff"],
                                             f"{tpath}.coeff")
    try:
        return HomogPoly(field, nv, degree, terms)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


# -- varieties and tangents ---------------------------------------------------

def variety_to_json(variety: LambdaMatrix) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "variety",
        "cage": cage_to_json(variety.cage),
        "s": variety.s,
        "lambda": [[scalar_to_json(c) for c in row]
                   for row in variety.rows],
    }


def variety_from_json(obj, path: str = "$") -> LambdaMatrix:
    _expect(isinstance(obj, dict), path, "variety must be an object")
    _expect(obj.get("kind") == "variety", f"{path}.kind",
            "expected kind 'variety'")
    cage = cage_from_json(obj.get("cage"), f"{path}.cage")
    try:
        report = cage.validate()
    except ReducibleModulusError as exc:
        raise SchemaError(f"{path}.cage.field", str(exc)) from exc
    _expect(report.valid, f"{path}.cage", "embedded cage fails validation")
    rows_obj = obj.get("lambda")
    _expect(isinstance(rows_obj, list) and rows_obj, f"{path}.lambda",
            "lambda must be a nonempty list of rows")
    rows = []
    for r, row in enumerate(rows_obj):
        rpath = f"{path}.lambda[{r}]"
        _expect(isinstance(row, list) and len(row) == cage.n, rpath,
                f"row must have {cage.n} entries")
        rows.append(tuple(scalar_from_json(cage.field, c, f"{rpath}[{k}]")
                          for k, c in enumerate(row)))
    s = obj.get("s", len(rows))
    _expect(_is_int(s), f"{path}.s", "s must be an integer")
    _expect(s == len(rows), f"{path}.s",
            f"s={s} but {len(rows)} rows present")
    try:
        _expect(rank(Matrix(cage.field, rows)) == len(rows), f"{path}.lambda",
                "lambda rows are linearly dependent")
    except ReducibleModulusError as exc:
        raise SchemaError(f"{path}.lambda", str(exc)) from exc
    return LambdaMatrix(cage, tuple(rows))


def tangent_to_json(tangent: TangentSubspace) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "tangent",
        "node": node_to_json(tangent.node),
        "chart": tangent.chart,
        "basis": [[scalar_to_json(c) for c in v] for v in tangent.basis],
    }


# -- configurations ------------------------------------------------------------

def configuration_to_json(config: Configuration) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "configuration",
        "field": field_to_json(config.field),
        "points": [[scalar_to_json(x) for x in p] for p in config.points],
    }


def configuration_from_json(obj, path: str = "$") -> Configuration:
    _expect(isinstance(obj, dict), path, "configuration must be an object")
    _expect(obj.get("kind") == "configuration", f"{path}.kind",
            "expected kind 'configuration'")
    field = field_from_json(obj.get("field"), f"{path}.field")
    pts_obj = obj.get("points")
    _expect(isinstance(pts_obj, list) and pts_obj, f"{path}.points",
            "points must be a nonempty list")
    points = []
    for i, p in enumerate(pts_obj):
        ppath = f"{path}.points[{i}]"
        _expect(isinstance(p, list) and p, ppath,
                "point must be a nonempty list")
        points.append([scalar_from_json(field, x, f"{ppath}[{k}]")
                       for k, x in enumerate(p)])
    try:
        return Configuration(field, points)
    except ValueError as exc:
        raise SchemaError(f"{path}.points", str(exc)) from exc


# -- reports -------------------------------------------------------------------

def check_to_json(check: CheckResult) -> dict:
    out = {"name": check.name, "pass": check.passed,
           "details": check.details}
    if check.witness is not None:
        out["witness"] = poly_to_json(check.witness)
    return out


def report_to_json(report: VerificationReport,
                   elapsed: float | None = None) -> dict:
    out = {
        "schema": SCHEMA,
        "kind": "report",
        "subject": report.subject,
        "checks": [check_to_json(c) for c in report.checks],
        "pass": report.passed,
    }
    if elapsed is not None:
        out["elapsed_s"] = round(elapsed, 3)
    return out
