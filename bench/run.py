"""repetend benchmark: three oracle-checked workloads, stdlib only.

    python3 bench/run.py --workload small_ops --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; it uses the checkout's ``src`` (the
package need not be installed).  Each run:

1. times ``setup_s``: a cold interpreter that imports ``repetend.cli`` and
   runs ``eval 1``, timed from outside; the median of SETUP_RUNS starts,
   half before and half after the workload;
2. runs the workload in its own child process (``worker.py``), closed loop,
   one op at a time, in the whole number of rounds closest to ``--seconds``;
3. checks every outcome against ``repetend.oracle`` (``gate.py``);
4. writes a record with provenance to ``.bench_out/`` and prints every
   metric by name with its unit, then one JSON line: end-to-end metrics
   with ``--trace 0``, per-layer metrics from a traced run with
   ``--trace 1``.

Exits 1 if any outcome is wrong, 2 if the checkout has no ``src/repetend``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("small_ops", "long_product", "long_quotient")
SETUP_RUNS = 20
RUN_LIMIT_S = 170  # the whole run, set-up included, must end within this



def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, as
    BENCHMARK.json lists them; the run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def cold_start() -> tuple[float, dict]:
    """Wall time of one cold start, timed from outside, and its report."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "cold_start.py")],
                          env=_child_env(), capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["code"] != 0 or report["stdout"] != "1\n":
        raise RuntimeError(f"cold start gave a wrong result: {report}")
    return elapsed, report


def summarize_setup(samples: list[tuple[float, dict]]) -> dict:
    return {
        "setup_s": statistics.median(wall for wall, _ in samples),
        "cli.import_s": statistics.median(r["import_s"] for _, r in samples),
        "cli.run_s": statistics.median(r["run_s"] for _, r in samples),
        "setup_samples_s": [wall for wall, _ in samples],
    }


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git directly (never from a git
    repository further up the tree)."""
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
    return None


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repetend").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, report: dict) -> dict:
    import workloads  # needs src on sys.path, which main() sets up

    named = report["ops"]
    return {
        "git_revision": git_revision(),
        "src_sha256": source_hash(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "time_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_hash": report["op_hash"],
        "op_count": report["op_count"],
        "period_cap": report["period_cap"],
        "roadmap_baseline": {
            name: {"roadmap": text, "workload": wl, "measured": named.get(name)}
            for wl, cases in workloads.BASELINE.items()
            for name, text in cases.items()
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.perf_counter()

    if not (SRC / "repetend" / "__init__.py").is_file():
        print(f"bench: no repetend sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    cold_start()  # untimed: leaves the bytecode cache warm
    # Half the cold starts run before the workload and half after, so the
    # median sees the machine at both ends of the run.
    samples = [cold_start() for _ in range(SETUP_RUNS // 2)]
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"{stem}.spans.jsonl.gz")]
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=RUN_LIMIT_S - (time.perf_counter() - start))
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} did not finish in {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr, end="")
        print(f"bench: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    samples += [cold_start() for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    setup = summarize_setup(samples)

    if args.trace:
        measured = dict(report["per_layer"])
        measured["cli.import_s"] = setup["cli.import_s"]
        measured["cli.run_s"] = setup["cli.run_s"]
        units = metric_units("per_layer")
    else:
        measured = dict(report["end_to_end"])
        measured["peak_rss_mb"] = report["peak_rss_mb"]
        measured["setup_s"] = setup["setup_s"]
        units = metric_units("end_to_end")
    metrics = {name: measured[name] for name in units}
    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0

    record = {
        "provenance": provenance(args, report),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "setup": setup,
        "worker": report,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    for op, reason in report["failures"].items():
        print(f"FAILED {op}: {reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
