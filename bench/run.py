"""cagekit benchmark: one client, closed loop, seeded certification workloads.

    python3 bench/run.py --workload supra-certify --seed 1 --trace 0

Runs from the root of a source checkout and imports cagekit from its `src/`.
With `--trace 0` it generates and runs whole rounds of the workload for
about `--seconds` (and at least 100 operations, so p90 has ten samples
beyond it), checks every answer against the oracles in `workloads.py`, and
prints the end-to-end metrics.  With `--trace 1` it runs one round untraced
and the same round again under the tracer, and prints the per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("supra-certify", "hilbert-tables", "inscribe-numberfield")
DEFAULT_SEED = 1
MIN_SAMPLES = 100        # p90 then has at least ten samples beyond it
MAX_SECONDS = 140        # stop adding rounds here even below MIN_SAMPLES

# Timings are reported at a reference machine speed: the speed at which
# reference_probe() takes REFERENCE_S, as it does on an undisturbed
# Intel Xeon vCPU at 2.0 GHz.  On a shared host the speed drifts by up to
# 1.5x over seconds and minutes, and cagekit's exact arithmetic, which is
# Fraction arithmetic too, slows in step with the probe (bench/README.md).
REFERENCE_S = 0.0026

# Units of the metrics each mode reports in its result line; they are the
# end_to_end and per_layer lists of BENCHMARK.json.  The traced run prints
# more layer figures above that line: the self time of a layer that some
# workload never enters would read 0 on every run of that workload, so only
# its call count is in the result line.
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s",
              "certs_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{name}.calls": "count" for name in (
        "linalg.rank", "linalg.kernel_basis", "linalg.solve",
        "verify.evaluation_matrix", "verify.hilbert_table", "poly.evaluate",
        "inscribe.node_differentials", "inscribe.tangent_at_node",
        "inscribe.inscribe_with_tangent", "cage.validate")},
    **{f"{name}.self_s": "s" for name in (
        "linalg.rank", "linalg.kernel_basis", "verify.evaluation_matrix",
        "verify.check", "poly.evaluate", "cage.validate",
        "serialize.cage_from_json", "serialize.report_to_json")},
    "linalg.cells": "count", "linalg.max_entry_bits": "bits",
    "linalg.full_rank_ratio": "ratio",
    "verify.evaluation_matrix.cells": "count",
    "verify.hilbert_table.rank_degrees": "count",
    "verify.hilbert_table.tail_degrees": "count",
    "field.mul.count": "count", "field.inverse.count": "count",
    "field.mul_q_ns": "ns", "field.mul_ext8_ns": "ns",
    "serialize.bytes_out": "bytes", "trace.overhead_ratio": "ratio",
}


def _import_cagekit() -> float:
    """Import cagekit from this checkout's src/ and return the import time."""
    if not (SRC / "cagekit" / "__init__.py").is_file():
        sys.exit(f"error: no cagekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    started = perf_counter()
    import cagekit
    elapsed = perf_counter() - started
    if not Path(cagekit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: cagekit imported from {cagekit.__file__}, "
                 f"not from {SRC}")
    return elapsed


def run_ops(ops, failures: list):
    """Run each operation once, time it and check its answer.

    Returns (latencies, answers).  An operation that raises one of the
    failure exceptions, or whose answer an oracle rejects or cannot read, is
    appended to `failures` as (label, reason) and its answer recorded as
    None.
    """
    import workloads as wl
    latencies, answers = [], []
    for op in ops:
        started = perf_counter()
        try:
            answer = wl.execute(op)
        except wl.OP_FAILURES as exc:
            answer = None
            reason = f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - started)
        if answer is not None:
            try:
                wl.check_answer(op, answer)
            except (wl.OracleMismatch, LookupError, TypeError) as exc:
                reason = f"oracle: {type(exc).__name__}: {exc}"
                answer = None
        if answer is None:
            failures.append((op.label, reason))
        answers.append(answer)
    return latencies, answers


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def reference_probe() -> float:
    """Seconds taken by a fixed loop of Fraction arithmetic that does not
    use cagekit."""
    a, b = Fraction(1, 3), Fraction(-7, 11)
    started = perf_counter()
    for i in range(300):
        a = (a * b + Fraction(i, 13)) / (b - Fraction(i + 1, 17))
        a = Fraction(a.numerator % 1000003, a.denominator % 999983 + 1)
    return perf_counter() - started


def measure(workload: str, seed: int, seconds: float, import_s: float):
    """Run whole rounds, each on freshly generated inputs, until the next
    round would end more than half a round past `seconds` and at least
    MIN_SAMPLES operations have run.

    The reference probe runs before the first and after every timed step
    (generating a round, one operation).  A step's time is reported at the
    reference speed: scaled by REFERENCE_S over the median of the two
    probes before and the two after it.
    """
    import workloads as wl
    failures: list = []
    probes = [reference_probe()]
    setups = []         # (raw seconds, index of the probe before)
    timed = []          # (label, raw seconds, index of the probe before)
    started = perf_counter()
    while True:
        round_started = perf_counter()
        ops = wl.build_round(workload, seed, len(setups))
        setups.append((perf_counter() - round_started, len(probes) - 1))
        probes.append(reference_probe())
        for op in ops:
            lat, _ = run_ops([op], failures)
            timed.append((op.label, lat[0], len(probes) - 1))
            probes.append(reference_probe())
        now = perf_counter()
        elapsed = now - started
        if elapsed >= MAX_SECONDS or (
                len(timed) >= MIN_SAMPLES
                and elapsed + (now - round_started) / 2 >= seconds):
            break

    def at_reference(raw: float, k: int) -> float:
        return raw * REFERENCE_S / statistics.median(
            probes[max(0, k - 1):k + 3])

    setup = [at_reference(t, k) for t, k in setups]
    latencies = [at_reference(t, k) for _, t, k in timed]
    raw = [t for _, t, _ in timed]
    by_label: dict[str, list[float]] = {}
    for (label, _, _), t in zip(timed, latencies):
        by_label.setdefault(label, []).append(t)
    ordered, raw_ordered = sorted(latencies), sorted(raw)
    certified = len(latencies) - len(failures)
    metrics = {
        "setup_s": (at_reference(import_s, 0) + statistics.median(setup),
                    "s"),
        "op_p50_s": (_percentile(ordered, 0.5), "s"),
        "op_p90_s": (_percentile(ordered, 0.9), "s"),
        "certs_per_s": (certified / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    info = {"samples": len(latencies), "rounds": len(setup),
            "measured_s": round(elapsed, 3),
            "fail_ratio": len(failures) / len(latencies),
            "reference_probe_s": statistics.median(probes),
            "unscaled": {"op_p50_s": _percentile(raw_ordered, 0.5),
                         "op_p90_s": _percentile(raw_ordered, 0.9),
                         "certs_per_s": certified / sum(raw)},
            "p50_s_by_operation": {label: round(statistics.median(v), 4)
                                   for label, v in by_label.items()}}
    return metrics, len(latencies), failures, info


def _mul_ns(x, y, repeats: int) -> float:
    """Median time of one scalar multiply x*y in nanoseconds."""
    batches = []
    for _ in range(5):
        started = perf_counter()
        for _ in range(repeats):
            x * y
        batches.append((perf_counter() - started) / repeats)
    return statistics.median(batches) * 1e9


def field_mul_probes() -> dict:
    """Scalar multiply over Q and over the degree-8 field of k3-quartic."""
    from cagekit import demos, field
    q = field.FieldDescriptor.rationals()
    x = q.from_rational(Fraction(-123456789, 987654321))
    y = q.from_rational(Fraction(31415926, 27182818))
    _, theta, eye = demos.quartic_roots_field()
    u = theta + eye * 3 - theta * eye + Fraction(2, 7)
    v = theta * theta * eye - theta + Fraction(-5, 3)
    return {"field.mul_q_ns": (_mul_ns(x, y, 20000), "ns"),
            "field.mul_ext8_ns": (_mul_ns(u, v, 500), "ns")}


def trace(workload: str, seed: int):
    """Round 0 untraced twice (the second time timed), then its setup and
    the round again under the tracer.  The overhead ratio compares the
    operation times of the two timed passes, each scaled by the reference
    probes around every operation."""
    from tracer import SPAN_NAMES, Tracer
    import workloads as wl
    probes = field_mul_probes()

    def in_probe_units(ops, failures):
        # operation time, each operation divided by the mean of the
        # reference probes just before and after it
        answers, total, before = [], 0.0, reference_probe()
        for op in ops:
            lat, answer = run_ops([op], failures)
            after = reference_probe()
            total += 2 * lat[0] / (before + after)
            answers += answer
            before = after
        return answers, total

    failures_plain: list = []
    _, plain = run_ops(wl.build_round(workload, seed), failures_plain)
    # timed again once warm, so the first pass's warm-up is not counted
    _, plain_s = in_probe_units(wl.build_round(workload, seed), [])
    failures: list = []
    with Tracer() as tr:
        problems = [f"unwrapped binding {b}" for b in tr.unwrapped()]
        answers, traced_s = in_probe_units(wl.build_round(workload, seed),
                                           failures)
    if answers != plain or len(failures) != len(failures_plain):
        problems.append("traced answers differ from untraced answers")
    if not any(tr.calls[s] for s in SPAN_NAMES if s.startswith("linalg.")):
        problems.append("no linalg spans recorded")
    metrics = layer_metrics(tr, SPAN_NAMES, answers, traced_s / plain_s,
                            probes)
    return metrics, len(answers), failures, problems


def layer_metrics(tr, spans, answers, overhead: float, probes: dict) -> dict:
    c = tr.counts
    rank_degrees = tr.child_calls[("verify.hilbert_table", "linalg.rank")]
    m = {}
    for name in spans:
        m[f"{name}.calls"] = (tr.calls[name], "count")
        m[f"{name}.self_s"] = (tr.self_s[name], "s")
    known = c["linalg.rank_known_calls"]
    known_cells = c["linalg.rank_known_cells"]
    m.update({
        "linalg.cells": (c["linalg.cells"], "count"),
        "linalg.max_entry_bits": (tr.max_entry_bits, "bits"),
        "linalg.full_rank_ratio": (
            c["linalg.full_rank_calls"] / known if known else 0.0, "ratio"),
        "linalg.full_rank_cell_ratio": (
            c["linalg.full_rank_cells"] / known_cells if known_cells else 0.0,
            "ratio"),
        "verify.evaluation_matrix.cells": (
            c["verify.evaluation_matrix.cells"], "count"),
        "verify.hilbert_table.rank_degrees": (rank_degrees, "count"),
        "verify.hilbert_table.tail_degrees": (
            c["verify.hilbert_table.degrees"] - rank_degrees, "count"),
        "field.mul.count": (c["field.mul"], "count"),
        "field.inverse.count": (c["field.inverse"], "count"),
        "serialize.bytes_out": (
            sum(len(a) for a in answers if a is not None), "bytes"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    m.update(probes)
    return m


def run_info(workload: str, seed: int) -> dict:
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "optimize": sys.flags.optimize,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "cagekit").glob("*.py"))),
    }


def _commit() -> str:
    """HEAD of the checkout's .git, read as files; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = _import_cagekit()

    info = run_info(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failures, problems = trace(args.workload,
                                                       args.seed)
        reported = PER_LAYER
    else:
        metrics, attempted, failures, extra = measure(
            args.workload, args.seed, args.seconds, import_s)
        problems = []
        info.update(extra)
        reported = END_TO_END
    print("info " + json.dumps(info))
    for label, reason in failures:
        print(f"FAILED {label}: {reason}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
