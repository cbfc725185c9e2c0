"""Seeded inputs, operations and oracles of the three benchmark workloads.

An operation is one certification a user waits for.  Each one starts from
the JSON text of its input, as the command line does, goes through
cagekit's public functions and ends in the JSON text of its answer.  Every
answer is then checked against oracles computed here with integer and
Fraction arithmetic only, so a wrong answer is caught even when cagekit
reports a pass.

cagekit is reached through module attributes at call time
(`verify.run_suite`, not a name bound at import), so that the tracer in
`tracer.py` sees every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from cagekit import cage as cage_mod
from cagekit import demos, inscribe, serialize, verify
from cagekit.errors import CageKitError, SchemaError

# An operation that raises one of these counts as failed; anything else is a
# fault of the benchmark itself and aborts the run.  AssertionError comes from
# the self-checks in linalg.kernel_basis and demos._certify, RuntimeError from
# verify._separating_form.
OP_FAILURES = (AssertionError, RuntimeError, ValueError, CageKitError)

SUPRA_CHECKS = ("validation", "interpolation", "minimality", "rigidity")

# One round of each workload, as (kind, n, d, count) slots.  A run repeats
# whole rounds, each with freshly generated cages, so the shape mix of every
# run is exactly this and no cage is certified twice.  The counts place
# op_p50_s and op_p90_s inside a cluster of similar operations rather than
# on the edge between two, which keeps them steady across seeds.
ROUNDS = {
    # full-row-rank supra matrices from 8x10 (n=2, d=3) to 53x56 (n=3, d=5);
    # p50 falls among the (2,4) verifies, p90 among the (3,4) and (4,3) ones
    "supra-certify": (
        ("verify", 2, 3, 16), ("verify", 2, 4, 18), ("verify", 2, 5, 3),
        ("verify", 3, 3, 2), ("verify", 2, 6, 2), ("verify", 3, 4, 4),
        ("verify", 4, 3, 4), ("verify", 3, 5, 1),
    ),
    # rank-deficient evaluation matrices, one fresh rank per degree;
    # p90 falls among the (2,5) Hilbert tables and slice checks
    "hilbert-tables": (
        ("hilbert", 2, 3, 1), ("hilbert", 2, 5, 2), ("hilbert", 3, 3, 1),
        ("fubini", 2, 4, 1), ("fubini", 2, 5, 3), ("fubini", 2, 6, 1),
        ("fubini", 3, 3, 1),
        ("cb", 2, 3, 4), ("cb", 2, 4, 3), ("cb", 2, 5, 1),
    ),
    # n x n eliminations only, except the demos' supra step over Q(theta, i);
    # p50 falls among the (2,5) and (4,2) inscriptions, p90 among the (3,3)
    # ones, and the two number-field demos lie beyond p90
    "inscribe-numberfield": (
        ("inscribe", 2, 3, 3), ("inscribe", 3, 2, 2), ("inscribe", 2, 4, 3),
        ("inscribe", 2, 5, 17), ("inscribe", 4, 2, 17), ("inscribe", 3, 3, 6),
        ("demo", 3, 3, 1), ("demo", 3, 4, 1),
    ),
}

DEMO_BY_SHAPE = {(3, 3): "fermat-cubic-surface", (3, 4): "k3-quartic"}


@dataclass(frozen=True)
class Op:
    """One operation: its input JSON text, its parameters and what the
    oracles expect of its answer."""

    kind: str
    n: int
    d: int
    payload: str
    params: dict
    expect: dict

    @property
    def label(self) -> str:
        return f"{self.kind} n={self.n} d={self.d}"


class OracleMismatch(Exception):
    """An answer disagrees with an oracle or reports a failed check."""


# -- oracles (no cagekit) -----------------------------------------------------

def grid_hilbert(n: int, d: int, k_max: int) -> list[int]:
    """Coefficients of (1 - t^d)^n / (1 - t)^(n+1) up to t^k_max: the
    Hilbert function of the d^n nodes, a complete intersection of n forms
    of degree d in P^n."""
    return [sum((-1) ** j * comb(n, j) * comb(k - j * d + n, n)
                for j in range(n + 1) if k - j * d >= 0)
            for k in range(k_max + 1)]


def fraction_rank(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _require(cond: bool, what: str):
    if not cond:
        raise OracleMismatch(what)


def _checks_by_name(doc: dict) -> dict:
    return {c["name"]: c for c in doc["checks"]}


def _check_report(doc: dict, expect: dict):
    _require(doc["pass"] is True, "report does not pass")
    if "supra_rank" in expect:
        checks = _checks_by_name(doc)
        rank = checks["supra-evaluation-rank"]["details"]["rank"]
        _require(rank == expect["supra_rank"],
                 f"supra rank {rank} != C(d+n,n)-n = {expect['supra_rank']}")
        dim = checks["kernel-dimension"]["details"]["kernel-dim"]
        _require(dim == expect["kernel_dim"],
                 f"interpolation kernel dimension {dim} != n")


def expectations(kind: str, n: int, d: int, params: dict) -> dict:
    """What the oracles predict for an operation, from n, d and its inputs."""
    if kind in ("verify", "demo"):
        out = {"supra_rank": comb(d + n, n) - n, "kernel_dim": n}
        if kind == "verify":
            out["simplicial_rank"] = comb(d + n - 1, n)
        return out
    if kind == "hilbert":
        return {"h": grid_hilbert(n, d, params["max_k"])}
    if kind == "fubini":
        return {"k_max": d ** n}
    if kind == "cb":
        return {"split": [len(part) for part in params["partition"]]}
    if kind == "inscribe":
        return {"codim": n - len(params["tangent"]), "nodes": d ** n}
    raise ValueError(f"unknown operation kind {kind!r}")


def check_answer(op: Op, text: str):
    """Raise OracleMismatch unless the answer agrees with every oracle."""
    doc = json.loads(text)
    p, expect = op.params, op.expect
    if op.kind == "verify":
        _check_report(doc, expect)
        checks = _checks_by_name(doc)
        for name in ("simplicial-lower-degree-kernel-trivial",
                     "simplicial-matrix-invertible"):
            rank = checks[name]["details"]["rank"]
            _require(rank == expect["simplicial_rank"],
                     f"{name}: simplicial rank {rank} != C(d+n-1,n)")
    elif op.kind == "hilbert":
        _require(doc["h"] == expect["h"],
                 f"grid Hilbert function {doc['h']} != series {expect['h']}")
    elif op.kind == "fubini":
        _check_report(doc, expect)
        details = doc["checks"][-1]["details"]
        _require(details["k-max"] == expect["k_max"]
                 and not details["mismatches"],
                 "slice additivity reports mismatches")
    elif op.kind == "cb":
        _check_report(doc, expect)
        details = doc["checks"][0]["details"]
        _require(details["lhs"] == details["rhs"], "lhs != rhs")
        _require(details["split"] == expect["split"],
                 "split sizes differ from the partition")
    elif op.kind == "inscribe":
        _check_report(doc["report"], expect)
        dim = len(p["tangent"])
        _require(len(doc["variety"]["lambda"]) == expect["codim"],
                 "inscribed codimension != n - tangent dimension")
        _require(len(doc["tangents"]) == expect["nodes"],
                 "not one tangent per node")
        start = [t for t in doc["tangents"]
                 if t["node"]["index"] == list(p["node"])]
        _require(len(start) == 1, "no tangent at the starting node")
        for t in doc["tangents"]:
            _require(len(t["basis"]) == dim, "forced tangent dimension")
        back = start[0]["basis"]
        _require(fraction_rank(p["tangent"] + back) == dim
                 and fraction_rank(back) == dim,
                 "tangent read back at the start differs from the prescribed")
    elif op.kind == "demo":
        _check_report(doc, expect)
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")


# -- operations ---------------------------------------------------------------

def _load_valid_cage(text: str):
    """As the command line loads a cage that must be valid."""
    cage = serialize.cage_from_json(json.loads(text))
    if not cage.validate().valid:
        raise SchemaError("cage", "cage fails validation")
    return cage


def execute(op: Op) -> str:
    """Run one operation from input JSON text to answer JSON text."""
    p = op.params
    if op.kind == "verify":
        cage = serialize.cage_from_json(json.loads(op.payload))
        out = serialize.report_to_json(verify.run_suite(cage, SUPRA_CHECKS))
    elif op.kind == "hilbert":
        # the `cagekit hilbert --selection all` path
        cage = _load_valid_cage(op.payload)
        points = cage.nodes()
        table = verify.hilbert_table(points, p["max_k"], field=cage.field)
        out = {"schema": serialize.SCHEMA, "kind": "hilbert",
               "subject": cage.summary(), "selection": "all",
               "points": len(points), "k": list(range(p["max_k"] + 1)),
               "h": list(table)}
    elif op.kind == "fubini":
        cage = serialize.cage_from_json(json.loads(op.payload))
        out = serialize.report_to_json(verify.run_suite(cage, ("fubini",)))
    elif op.kind == "cb":
        cage = serialize.cage_from_json(json.loads(op.payload))
        report = verify.cayley_bacharach_check(cage, p["partition"], p["k"])
        out = serialize.report_to_json(report)
    elif op.kind == "inscribe":
        cage = _load_valid_cage(op.payload)
        node = cage.node(p["node"])
        tangent = inscribe.make_tangent(node, p["tangent"])
        variety = inscribe.inscribe_with_tangent(cage, node, tangent)
        forced = inscribe.propagate_tangents(cage, node, tangent)
        report = verify.smoothness_check(variety, cage)
        out = {"variety": serialize.variety_to_json(variety),
               "tangents": [serialize.tangent_to_json(forced[i])
                            for i in sorted(forced)],
               "report": serialize.report_to_json(report)}
    elif op.kind == "demo":
        out = serialize.report_to_json(demos.run_demo(p["name"]))
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")
    return json.dumps(out)


# -- seeded inputs ------------------------------------------------------------

def _independent_tangent(rng: random.Random, n: int, dim: int):
    while True:
        vecs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(dim)]
        if fraction_rank(vecs) == dim:
            return vecs


def build_round(workload: str, seed: int, index: int = 0) -> list[Op]:
    """Generate and serialize the inputs of round `index`; the same seed
    gives the same inputs.  Cages come from cagekit's own seeded generator,
    which validates every candidate."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    ops = []
    for kind, n, d, count in ROUNDS[workload]:
        for _ in range(count):
            params: dict = {}
            payload = ""
            if kind == "demo":
                params["name"] = DEMO_BY_SHAPE[(n, d)]
            else:
                cage = cage_mod.random_cage(rng.randrange(2 ** 31), d, n)
                payload = json.dumps(serialize.cage_to_json(cage))
            if kind == "hilbert":
                # one degree past the stabilization n(d-1), so the tail
                # certificate is exercised too
                params["max_k"] = n * (d - 1) + 1
            elif kind == "cb":
                # random nodes, fixed sizes: the cost of the check depends
                # on the part sizes
                indices = list(cage_mod.all_indices(d, n))
                chosen = set(rng.sample(indices, len(indices) // 2))
                params["partition"] = (
                    [i for i in indices if i in chosen],
                    [i for i in indices if i not in chosen])
            elif kind == "inscribe":
                params["node"] = tuple(rng.randint(1, d) for _ in range(n))
                params["tangent"] = _independent_tangent(
                    rng, n, rng.randint(1, n - 1))
            expect = expectations(kind, n, d, params)
            # every admissible Cayley-Bacharach degree 0..2d-3 is its own
            # operation
            for k in (range(2 * d - 2) if kind == "cb" else (None,)):
                op_params = params if k is None else dict(params, k=k)
                ops.append(Op(kind, n, d, payload, op_params, expect))
    # Spread each kind over the round.  The machine's speed drifts over
    # seconds; a kind run back to back would sample one speed per round.
    rng.shuffle(ops)
    return ops
