"""The repository benchmark: four oracle-checked RSTkNN workloads.

    python3 perfbench/run.py --workload exact_read --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout.  Each run self-tests the oracle, runs
the workload in a child process (``program.py``; for ``http_open`` that
child drives a server process, ``server.py``), checks every read answer
against the brute-force oracle (``oracle.py``) and prints a report
followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload twice on the same inputs — untraced, then with spans and a
metrics registry attached — and reports the per-layer metrics, the
tracing overhead and the registry cross-check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work", f"run-{os.getpid()}")

#: Oracle tables kept between runs (see ``oracle.cached``).
CACHE = os.path.join(HERE, ".cache")

#: Set-ups per untraced run (the median is reported).  The sketch build
#: of ``profile_read`` and a server start take seconds each, so those
#: workloads set up twice.
SETUPS = {"exact_read": 3, "profile_read": 2, "live_mixed": 3, "http_open": 2}

#: Wall-clock cap of one child process.
CHILD_TIMEOUT_S = 170.0


def _child(workload: str, seed: int, seconds: float, trace: int, max_ops: int, setups: int) -> Dict[str, Any]:
    out = os.path.join(WORK, f"{workload}-{seed}-{trace}.pkl")
    if os.path.exists(out):
        os.remove(out)
    cmd = [
        sys.executable, os.path.join(HERE, "program.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--setups", str(setups), "--max-ops", str(max_ops),
        "--out", out,
    ]
    # A pinned hash seed keeps set/dict iteration order, and so the
    # program's work, identical across runs of the same inputs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=env)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            # SIGTERM first: the program then stops its server and the
            # server its worker pool.
            proc.terminate()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"program exited with {proc.returncode}")
    with open(out, "rb") as fh:
        log = pickle.load(fh)
    os.remove(out)
    return log


def check(log: Dict[str, Any]) -> Dict[str, Any]:
    """Replay the log through the oracle; count failures and ties."""
    from oracle import cached

    oracle = cached(log["objects"], log["max_distance"], log["alpha"], log["kmax"], CACHE)
    pool = log.get("pool")
    failed = ambiguous = mismatched = 0
    bad_reads: set = set()
    findings: List[str] = []
    read_i = 0
    for op in log["ops"]:
        kind = op["kind"]
        if kind == "read":
            i, read_i = read_i, read_i + 1
            if op.get("error") or op.get("status", 200) != 200:
                failed += 1
                bad_reads.add(i)
                continue
            x, y, vec, k = pool[op["pool"]] if pool is not None else op["q"]
            bad, amb = oracle.check(x, y, vec, k, op["ids"])
            ambiguous += amb
            if bad:
                failed += 1
                mismatched += 1
                bad_reads.add(i)
                if len(findings) < 5:
                    findings.append(f"read {i} (k={k}) mismatched ids {bad[:10]}")
        elif op.get("error") or not op.get("ok", True):
            failed += 1
        elif kind == "insert":
            oracle.insert(*op["obj"])
        elif kind == "delete":
            oracle.delete(op["oid"])
    return {
        "failed": failed,
        "mismatched": mismatched,
        "ambiguous": ambiguous,
        "bad_reads": bad_reads,
        "findings": findings,
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    from program import HTTP_LATENCY_LIMIT_S, SETTINGS, clear_repro_env, exit_on_sigterm

    exit_on_sigterm()
    if args.workload not in SETTINGS:
        print(f"unknown workload {args.workload!r}; one of {sorted(SETTINGS)}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("no src/repro next to perfbench/: run from a full checkout", file=sys.stderr)
        return 2
    clear_repro_env()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import metrics
    import selftest

    st = selftest.run(args.seed)
    calibration = _calibrate()
    limit = HTTP_LATENCY_LIMIT_S if args.workload == "http_open" else None
    setups = SETUPS[args.workload]
    try:
        os.makedirs(WORK, exist_ok=True)
        if args.trace == 0:
            log = _child(args.workload, args.seed, args.seconds, 0, 0, setups)
            result = check(log)
            values = metrics.end_to_end(log, result, limit)
            report = {name: (values[name], unit) for name, unit in metrics.END_TO_END}
            extra = {name: (values[name], unit) for name, unit in metrics.REPORTED}
            notes = values["notes"]
            mismatches: List[str] = []
        else:
            half = args.seconds / 2.0
            base = _child(args.workload, args.seed, half, 0, 0, 1)
            n_ops = len(base["ops"])
            log = _child(args.workload, args.seed, half, 1, n_ops, 1)
            result = check(log)
            overhead = _overhead(base, log)
            mismatches = metrics.registry_check(log)
            values = metrics.per_layer(log, result, overhead, len(mismatches))
            report = {name: (values[name], metrics.LAYER_MAP[name][0]) for name in metrics.LAYER_MAP}
            extra = {}
            notes = {"untraced_ops": n_ops, "traced_ops": len(log["ops"])}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(WORK))

    meta = (log.get("server") or log)["meta"]
    correct = st["failed"] == 0 and result["mismatched"] == 0 and not mismatches
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"engine {meta['engine']}  kernels {meta['kernel_backend']}  nproc {meta['nproc']}")
    print(f"provenance {json.dumps(meta['bench_metadata'], sort_keys=True)}")
    print(f"oracle self-test: {st['checked']} answers checked, {st['failed']} failed, "
          f"{st['ambiguous']} tie-band cases")
    print(f"oracle: {len(log['ops'])} ops, {result['failed']} failed, "
          f"{result['mismatched']} mismatched, {result['ambiguous']} tie-band cases")
    for line in result["findings"] + mismatches:
        print(f"  finding: {line}")
    for name, (value, unit) in list(report.items()) + list(extra.items()):
        print(f"  {name:28s} {value:14.6g} {unit}")
    notes["machine_calibration_ms"] = calibration
    for name, value in notes.items():
        print(f"  note {name} = {value}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(log["ops"]),
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }))
    return 0


def _calibrate() -> float:
    """Median time of a fixed pure-Python loop (ms): how fast this
    machine ran when the run started; printed, never gated."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i
        times.append(time.perf_counter() - t0)
    return 1e3 * sorted(times)[2]


def _overhead(base: Dict[str, Any], traced: Dict[str, Any]) -> float:
    """Traced / untraced time over the operations both runs made."""
    n = min(len(base["ops"]), len(traced["ops"]))
    if n == 0:
        return 0.0
    t_base = sum(op["t"] for op in base["ops"][:n])
    t_traced = sum(op["t"] for op in traced["ops"][:n])
    return t_traced / t_base - 1.0 if t_base > 0 else 0.0


if __name__ == "__main__":
    sys.exit(main())
