"""One workload in its own process: generate, run closed-loop, check.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
One caller runs one op at a time; an op is parse literals, compute,
format the result, as ``repetend eval`` does.  Whole rounds of the op
list run, as many as come closest to ``--seconds`` (at least one).  With
``--trace 1`` untraced and traced rounds alternate, and the traced ones
give the per-layer numbers.
Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import operator
import resource
import statistics
import time

import gate
import spans
import workloads
from repetend import config, notation, rational
from repetend.errors import CapacityError

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

# Per-layer metric stems and the traced functions each one covers.  The
# first function is the layer's entry point, whose calls are the layer's
# calls; self time and sizes sum over all of them, so that a helper the
# entry point delegates its work to is charged to the layer.
LAYERS = {
    "words.int_to_digits": ("words.int_to_digits",),
    "words.digits_to_int": ("words.digits_to_int",),
    "words.primitive_period": ("words.CircularWord.primitive_period",),
    "group.star_mul": ("group.StarElement.__mul__",),
    "numtheory.multiplicative_order": ("numtheory.multiplicative_order",),
    "decimals.from_scaled": ("decimals.DecimalNumber.from_scaled",),
    "decimals.scalar_action": ("decimals.scalar_action",),
    "rational.from_ratio": ("rational.from_ratio",),
    "rational.add": ("rational.DcNumber.__add__",),
    "rational.mul": ("rational.DcNumber.__mul__",),
    "rational.div": ("rational.DcNumber.__truediv__",),
    "rational.compare": ("rational.DcNumber.compare",),
    "rational.canonical": ("rational.DcNumber.canonical", "rational.WcpNumber.canonical"),
    "rational.wcp_from_dc": ("rational.wcp_from_dc",),
    "notation.parse": ("notation.parse", "notation.parse_components"),
    "notation.format_dc": ("notation.format_dc", "notation.format_wcp"),
}


def compute(expr, base: int):
    kind = expr[0]
    if kind == "lit":
        return notation.parse(expr[1], base)
    if kind == "ff":
        return rational.from_fraction(expr[1], expr[2], base)
    lhs, rhs = compute(expr[1], base), compute(expr[2], base)
    if kind == "cmp":
        return lhs.compare(rhs)
    return _BINARY[kind](lhs, rhs)


def run_op(op: dict):
    """The op's outcome: the formatted literal, a compare result, or CAP."""
    try:
        value = compute(op["expr"], op["base"])
    except CapacityError:
        return gate.CAP
    return value if isinstance(value, int) else notation.format_dc(value)


def result_digits(outcome) -> int:
    if isinstance(outcome, str) and outcome != gate.CAP:
        return len(outcome) - sum(outcome.count(ch) for ch in "-.()")
    return 0


class Loop:
    """Runs rounds of the op list and keeps what the metrics need."""

    def __init__(self, ops: list[dict]):
        self.ops = ops
        self.first: list = [None] * len(ops)  # round-one outcome per op
        self.op_ns: list[int] = []
        self.per_op: list[list[int]] = [[] for _ in ops]
        self.digits = 0
        self.attempted = 0
        self.mismatches = [0] * len(ops)  # later rounds unlike round one
        self.rounds = 0

    def round(self, keep_times: bool = True) -> int:
        """One pass over the ops; returns its wall time in ns.  Op times
        of traced rounds are not kept, since tracing inflates them."""
        clock = time.perf_counter_ns
        start = clock()
        for i, op in enumerate(self.ops):
            t0 = clock()
            try:
                outcome = run_op(op)
            except Exception as exc:  # an op failing must not end the run
                outcome = f"raised {type(exc).__name__}: {exc}"
            t1 = clock()
            if keep_times:
                self.op_ns.append(t1 - t0)
                self.per_op[i].append(t1 - t0)
            self.attempted += 1
            self.digits += result_digits(outcome)
            if self.rounds == 0:
                self.first[i] = outcome
            elif outcome != self.first[i]:
                self.mismatches[i] += 1
        self.rounds += 1
        return clock() - start

    def check(self, cap: int) -> tuple[dict[str, str], int]:
        """Reasons for every wrong op, and the number of wrong
        outcomes: every round of an op wrong in round one, and each later
        outcome that differs from round one."""
        reasons, failed = {}, 0
        for i, op in enumerate(self.ops):
            reason = gate.check(gate.expect(op, cap), self.first[i], op["base"])
            if reason:
                failed += self.rounds
            elif self.mismatches[i]:
                reason = "outcome differs from round one"
                failed += self.mismatches[i]
            if reason:
                reasons[f"op {i}: {op['name']}"] = reason
        return reasons, failed


def percentile(values: list[int], q: float) -> int:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def end_to_end(loop: Loop) -> dict:
    total_s = sum(loop.op_ns) * 1e-9
    return {
        "ops_per_s": len(loop.op_ns) / total_s,
        "op_p50_ms": statistics.median(loop.op_ns) * 1e-6,
        "op_p99_ms": percentile(loop.op_ns, 99) * 1e-6,
        "digits_per_s": loop.digits / total_s,
    }


def layer_stats(summary: dict) -> dict:
    """Each layer's calls, self time and size measures in one traced
    round: ``<stem>.calls``, ``<stem>.self_s``, ``<stem>.<measure>``."""
    out = {}
    for stem, names in LAYERS.items():
        entries = [summary[n] for n in names if n in summary]
        out[f"{stem}.calls"] = summary.get(names[0], {}).get("calls", 0)
        out[f"{stem}.self_s"] = sum(e["self_s"] for e in entries)
        for name in names:
            if name in spans.MEASURES:
                stat = spans.MEASURES[name][0]
                sizes = [e.get(stat, 0) for e in entries]
                out[f"{stem}.{stat}"] = max(sizes, default=0) if stat.startswith("max_") else sum(sizes)
    return out


def per_layer(summaries: list[dict], walls: tuple[list[int], list[int]]):
    """Median over traced rounds of each layer's numbers; counts and
    sizes must repeat exactly from round to round."""
    rounds = [layer_stats(summary) for summary in summaries]
    out, repeat = {}, True
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        if not key.endswith(".self_s") and len(set(values)) > 1:
            repeat = False
        out[key] = statistics.median(values)
    untraced, traced = walls
    out["trace.overhead_ratio"] = sum(traced) / sum(untraced)
    return out, repeat


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="gzip file for the first traced round's spans")
    args = ap.parse_args()

    config.period_cap = config.DEFAULT_PERIOD_CAP
    cap = config.period_cap
    t0 = time.perf_counter()
    ops = workloads.GENERATORS[args.workload](args.seed)
    generate_s = time.perf_counter() - t0

    loop = Loop(ops)
    # The op list is the benchmark's, not the program's: keep the cyclic
    # collector from traversing it on the ops' time.
    gc.collect()
    gc.freeze()
    tracer = spans.Tracer()
    summaries, untraced, traced = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(loop.round())
        if args.trace:
            tracer.install()
            try:
                traced.append(loop.round(keep_times=False))
            finally:
                tracer.uninstall()
            round_spans = tracer.take_spans()
            if not summaries:
                first_spans = round_spans
            summaries.append(spans.summarize(round_spans, tracer.names))
        # stop at the whole number of rounds that comes closest to --seconds
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(untraced) / 2 >= args.seconds:
            break

    # The program's peak, before the gate builds its own expected digits.
    # Op generation before the loop works on short literals only.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace and args.spans:
        spans.write_spans(first_spans, tracer.names, args.spans)
    t0 = time.perf_counter()
    failures, failed = loop.check(cap)
    check_s = time.perf_counter() - t0
    if config.period_cap != cap:
        failures["config.period_cap"] = f"changed to {config.period_cap} during the run"
        failed += 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "op_count": len(ops),
        "op_hash": workloads.op_hash(ops),
        "period_cap": cap,
        "rounds": loop.rounds,
        "samples": len(loop.op_ns),
        "generate_s": generate_s,
        "check_s": check_s,
        "attempted": loop.attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "ops": _named_op_times(loop),
    }
    if args.trace:
        record["per_layer"], record["counts_repeat"] = per_layer(
            summaries, (untraced, traced)
        )
        record["layer_share_of_op_time"] = _shares(summaries, traced)
    else:
        record["end_to_end"] = end_to_end(loop)
    print(json.dumps(record))
    return 0


def _shares(summaries: list[dict], totals: list[int]) -> dict:
    """Each layer's self time over the traced rounds' wall time."""
    total_s = sum(totals) * 1e-9
    out = {}
    for stem, names in LAYERS.items():
        self_s = sum(s[n]["self_s"] for s in summaries for n in names if n in s)
        out[stem] = self_s / total_s if total_s else 0.0
    return out


def _named_op_times(loop: Loop) -> dict:
    """Median time per op name (ms), with its sample count."""
    by_name: dict[str, list[int]] = {}
    for op, samples in zip(loop.ops, loop.per_op):
        by_name.setdefault(op["name"], []).extend(samples)
    return {
        name: {"median_ms": statistics.median(v) * 1e-6, "samples": len(v)}
        for name, v in sorted(by_name.items())
    }


if __name__ == "__main__":
    raise SystemExit(main())
