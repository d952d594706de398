"""Tests of the benchmark's own machinery.

    python3 -m pytest bench -q
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from repetend import config, notation, rational, words  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    generate = workloads.GENERATORS[name]
    first, again, other = generate(3), generate(3), generate(4)
    assert first == again
    assert workloads.op_hash(first) == workloads.op_hash(again)
    assert workloads.op_hash(first) != workloads.op_hash(other)


def test_every_roadmap_case_is_in_its_workload():
    for name, cases in workloads.BASELINE.items():
        names = {op["name"] for op in workloads.GENERATORS[name](1)}
        assert set(cases) <= names


def _log(*triples):
    log = spans.SpanLog()
    for parent, start, end in triples:
        log.end[log.open(parent, 0, start)] = end
    return log


def test_self_time_subtracts_child_spans():
    log = _log((-1, 0, 100), (0, 10, 30), (0, 40, 70), (2, 45, 50), (2, 60, 70),
               (-1, 200, 210))
    assert spans.self_times(log) == [50, 20, 15, 5, 10, 10]


def test_self_time_counts_overlapping_children_once():
    log = _log((-1, 0, 100), (0, 10, 50), (0, 30, 60))
    assert spans.self_times(log)[0] == 50


def _bindings():
    """Every module global and class attribute of repetend, by identity."""
    seen = {}
    for modname, mod in spans._repetend_modules():
        for name, value in vars(mod).items():
            seen[(modname, name)] = value
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    seen[(modname, name, attr)] = raw
    return seen


def test_tracer_wraps_every_reference_and_restores_all():
    before = _bindings()
    original = words.int_to_digits
    tracer = spans.Tracer()
    assert tracer.install() > 0
    try:
        assert words.int_to_digits is not original
        assert rational.int_to_digits is words.int_to_digits
        value = notation.parse("0.(01)", 10) * notation.parse("0.(01)", 10)
        notation.format_dc(value)
    finally:
        tracer.uninstall()
    recorded = tracer.take_spans()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    summary = spans.summarize(recorded, tracer.names)
    assert {"notation.parse", "rational.DcNumber.__mul__", "words.int_to_digits",
            "group.StarElement.__mul__", "notation.format_dc"} <= summary.keys()
    assert all(e >= s for s, e in zip(recorded.start, recorded.end))
    assert summary["group.StarElement.__mul__"]["max_period"] == 198
    assert summary["notation.parse"]["calls"] == 2


def _traced(action):
    """The spans of one traced call of ``action`` and their summary."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        action()
    finally:
        tracer.uninstall()
    log = tracer.take_spans()
    return log, spans.summarize(log, tracer.names)


def test_format_and_parse_layers_carry_the_work_of_their_helpers():
    value = rational.from_fraction(1, 20047, 10)
    text = notation.format_dc(value)
    cases = [
        # format_dc only delegates: the digits are written in format_wcp
        (lambda: notation.format_dc(value), "notation.format_dc", "notation.format_wcp"),
        # parse only delegates: the characters are read in parse_components
        (lambda: notation.parse(text, 10), "notation.parse", "notation.parse_components"),
    ]
    for action, entry, helper in cases:
        _, summary = _traced(action)
        stats = worker.layer_stats(summary)
        own, helped = summary[entry]["self_s"], summary[helper]["self_s"]
        assert stats[f"{entry}.self_s"] == pytest.approx(own + helped)
        assert helped > 10 * own
        assert summary[entry]["calls"] == 1


def test_every_metric_in_benchmark_json_is_produced():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    loop = worker.Loop(workloads.small_ops(1)[:20])
    loop.round()
    _, summary = _traced(loop.round)
    layer, repeat = worker.per_layer([summary], ([1], [1]))
    produced = {*layer, "cli.import_s", "cli.run_s"}  # run.py adds the cli.* pair
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert run.metric_units("per_layer") == {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {*worker.end_to_end(loop), "peak_rss_mb", "setup_s"}
    assert {m["name"] for m in spec["end_to_end"]} == produced


def test_tracer_restores_after_an_exception():
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(ZeroDivisionError):
            notation.parse("1", 10) / notation.parse("0", 10)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(before[k] is after[k] for k in before)


def test_gate_reads_literals_independently():
    assert gate.read_literal("24.837(56)", 10) == (
        gate.oracle.Fraction(24837, 1000) + gate.oracle.Fraction(56, 99 * 1000)
    )
    assert gate.read_literal("-0.(1)", 2) == gate.oracle.Fraction(-1)


def test_gate_accepts_the_library_output():
    op = {"name": "1/7", "base": 10, "expr": ["ff", 1, 7]}
    expected = gate.expect(op, config.DEFAULT_PERIOD_CAP)
    assert gate.check(expected, worker.run_op(op), 10) is None
    assert gate.check(expected, "0.(142857)", 10) is None


@pytest.mark.parametrize(
    "output",
    [
        "0.(142867)",  # one corrupted digit
        "0.(142857142857)",  # period not primitive
        "0.1(428571)",  # preperiod not minimal
        "-0.(142857)",  # sign
        "1.(142857)",  # whole part
        "0.(14285)",  # period too short to close the cycle
        "0(142857)",  # no point before the period
    ],
)
def test_gate_rejects_a_wrong_literal(output):
    expected = gate.evaluate(["ff", 1, 7], 10)
    assert gate.check(expected, output, 10) is not None


@pytest.mark.parametrize("output", ["0.5(0)", "0.50", "00.5", "-0.5", ".5"])
def test_gate_rejects_a_non_canonical_terminating_literal(output):
    expected = gate.evaluate(["ff", 1, 2], 10)
    assert gate.check(expected, "0.5", 10) is None
    assert gate.check(expected, output, 10) is not None


def test_gate_rejects_a_corrupted_long_result():
    op = {"name": "1/20047", "base": 10, "expr": ["ff", 1, 20047]}
    expected = gate.expect(op, config.DEFAULT_PERIOD_CAP)
    good = worker.run_op(op)
    assert gate.check(expected, good, 10) is None
    i = len(good) - 5000
    bad = good[:i] + ("1" if good[i] != "1" else "2") + good[i + 1 :]
    assert "digit" in gate.check(expected, bad, 10)


def test_gate_requires_cap_hits_to_raise():
    op = {"name": "cap", "base": 36, "expr": ["*", ["lit", "0.(0001)"], ["lit", "0.(0001)"]]}
    assert gate.expect(op, config.DEFAULT_PERIOD_CAP) == gate.CAP
    assert gate.check(gate.CAP, gate.CAP, 36) is None
    assert gate.check(gate.CAP, "0.(1)", 36) is not None
    assert gate.check(gate.evaluate(["ff", 1, 7], 10), gate.CAP, 10) is not None


def test_compare_outcomes_are_checked():
    expr = ["cmp", ["lit", "0.(3)"], ["lit", "0.33"]]
    op = {"name": "cmp", "base": 10, "expr": expr}
    assert gate.check(gate.expect(op, 10**6), worker.run_op(op), 10) is None
    assert gate.check(gate.expect(op, 10**6), -1, 10) is not None


def test_number_theory_helpers():
    assert gate.multiplicative_order(10, 9999**2) == 39996
    assert gate.multiplicative_order(10, 1000003) == 166667
    assert gate.expansion_shape(gate.oracle.Fraction(7, 12 * 20047), 10) == (2, 20046)
    assert gate.factorize(2**4 * 3 * 1000003) == {2: 4, 3: 1, 1000003: 1}


def test_a_wrong_outcome_fails_every_round_of_its_op():
    ops = [
        {"name": "1/7", "base": 10, "expr": ["ff", 1, 7]},
        {"name": "cap", "base": 36, "expr": ["*", ["lit", "0.(0001)"], ["lit", "0.(0001)"]]},
    ]
    loop = worker.Loop(ops)
    loop.round()
    loop.round()
    assert loop.check(config.DEFAULT_PERIOD_CAP) == ({}, 0)
    loop.first = ["0.(142858)", "0.(1)"]  # a corrupted digit; a cap hit that returned
    reasons, failed = loop.check(config.DEFAULT_PERIOD_CAP)
    assert failed == 4 and len(reasons) == 2
