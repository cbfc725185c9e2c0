"""The bundled demos must certify every claim they make."""

import dataclasses
import hashlib
import json

import pytest

from cagekit import demos, verify
from cagekit.demos import (
    DEMO_NAMES,
    build_demo,
    cubic_roots_field,
    quartic_roots_field,
    run_demo,
)
from cagekit.serialize import report_to_json

EXPECTED_CHECKS = {
    "fermat-conic": 7,
    "k3-quartic": 9,
    "fermat-cubic-surface": 8,
    "cube-elliptic": 12,
}


def test_demo_catalog():
    assert set(DEMO_NAMES) == set(EXPECTED_CHECKS)
    with pytest.raises(KeyError):
        build_demo("moebius")


@pytest.mark.parametrize("name", sorted(EXPECTED_CHECKS))
def test_demo_certifies_itself(name):
    report = run_demo(name)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert len(report.checks) == EXPECTED_CHECKS[name]
    assert report.checks[0].name == "validation"
    assert report.subject["demo"] == name
    json.dumps(report_to_json(report))


# sha256 of json.dumps(report_to_json(run_demo(name))): a change to any
# report, its check names, details or key order, shows here
REPORT_DIGESTS = {
    "fermat-conic":
        "282726b34f3cf4756fa1b4306157e2bc50649d3c9479db2c74f41f94db4281fe",
    "k3-quartic":
        "a95453c376631474f5ddfd040f92fdc2387743cebc33a41017dac71590db6ebd",
    "fermat-cubic-surface":
        "18aabd6cd89caa9e921dea5e4a95c5a7ae7d28e1ecdc61bcef36f20d161da5b0",
    "cube-elliptic":
        "9658b95ab373e8fd2d48b6eea1c2e302391bc0e0357d42f068e7ab650557ddd5",
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_demo_report_is_unchanged(name):
    text = json.dumps(report_to_json(run_demo(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[name]


def test_k3_quartic_extras():
    names = [c.name for c in run_demo("k3-quartic").checks]
    assert "no-conjugation-fixed-node" in names
    assert "unit-pencil-smooth-at-nodes" in names
    assert "target-fermat-quartic-in-group-span" in names


def test_cube_elliptic_extras():
    report = run_demo("cube-elliptic")
    names = [c.name for c in report.checks]
    for expected in ["prescribed-tangent-read-back", "curve-smooth-at-vertices",
                     "eighth-vertex-automatic", "target-quadric-1-in-group-span",
                     "target-quadric-2-in-group-span"]:
        assert expected in names
    eighth = next(c for c in report.checks
                  if c.name == "eighth-vertex-automatic")
    assert eighth.details["kernel-dim"] == 3
    assert eighth.details["missing"] == [(2, 2, 2)]


def test_cube_elliptic_takes_the_supra_rank_once(monkeypatch):
    # the eighth vertex reads the interpolation report run_demo holds
    calls = []
    original = demos.verify_supra_interpolation

    def counted(cage):
        calls.append(cage)
        return original(cage)

    monkeypatch.setattr(demos, "verify_supra_interpolation", counted)
    assert run_demo("cube-elliptic").passed
    assert len(calls) == 1


def test_automatic_vertex_takes_no_rank(monkeypatch):
    # the eighth vertex is read from the interpolation checks, whose supra
    # rank validation proves, so no node rank is taken
    def forbidden(*args, **kwargs):
        raise AssertionError("the supra rank must not be computed")

    monkeypatch.setattr(verify, "_evaluation_rank", forbidden)
    report = run_demo("cube-elliptic")
    eighth = next(c for c in report.checks
                  if c.name == "eighth-vertex-automatic")
    assert eighth.passed
    assert eighth.details == {"kernel-dim": 3, "missing": [(2, 2, 2)]}


def test_span_proof_reuses_the_documented_lambda(monkeypatch):
    # a target equal to its pencil is in the group span by construction;
    # only a failed equality runs the full span check
    calls = []
    original = demos.complete_intersection_span_check

    def counted(polys, cage):
        calls.append(polys)
        return original(polys, cage)

    monkeypatch.setattr(demos, "complete_intersection_span_check", counted)
    assert run_demo("fermat-conic").passed and calls == []

    def wrong_lambda():
        spec = demos.demo_fermat_conic()
        label, target, lam = spec.targets[0]
        return dataclasses.replace(
            spec, targets=((label, target, (lam[0], lam[1] * 2)),))

    monkeypatch.setitem(demos.DEMO_BUILDERS, "fermat-conic", wrong_lambda)
    checks = {c.name: c for c in run_demo("fermat-conic").checks}
    assert len(calls) == 1
    assert not checks["target-fermat-conic-from-documented-lambda"].passed
    assert checks["target-fermat-conic-in-group-span"].passed


def test_demo_specs_expose_cages():
    spec = build_demo("fermat-conic")
    assert (spec.cage.n, spec.cage.d) == (2, 2)
    assert spec.cage.validate().valid
    assert spec.targets[0][1].degree == 2
    spec = build_demo("cube-elliptic")
    assert (spec.cage.n, spec.cage.d) == (3, 2)
    assert len(spec.targets) == 2


def test_primitive_element_data_recertifies():
    field, theta, eye = quartic_roots_field()
    assert theta ** 4 == field.from_rational(-1) / 3
    assert eye ** 2 == field.from_rational(-1)
    assert (theta + eye) == field.generator()
    field, omega, cbrt = cubic_roots_field()
    assert omega ** 2 + omega + field.one() == field.zero()
    assert cbrt ** 3 == field.from_rational(3)
