"""Benchmark of the eaqmds verifier: sweep, oracle and oracle-large.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each pass runs in a fresh single-threaded interpreter (``worker.py``),
importing the package from ``src/`` of this checkout.  Passes repeat until
``--seconds`` is used up.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it holds the run's
attributes (seed, source digest, versions, nproc, reference-probe time).
The exit code is nonzero when a check fails, an item count is wrong or
the package cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "eaqmds"
WORKER = HERE / "worker.py"

SETUP_PROBES = 8        # interpreters started only to time set-up
RUN_LIMIT_S = 170       # the whole run is abandoned after this long
TAIL_BEYOND = 10        # the tail percentile leaves this many items beyond it

# (metric, span name, field, unit); the span names are set in worker.py.
LAYER_METRICS = (
    ("fields.context_s", "fields.context", "busy_s", "s"),
    ("fields.context_calls", "fields.context", "calls", "count"),
    ("cyclic.generator_polynomial_s", "cyclic.generator_polynomial", "busy_s", "s"),
    ("cyclic.generator_polynomial_calls", "cyclic.generator_polynomial", "calls",
     "count"),
    ("cyclic.parity_check_s", "cyclic.parity_check", "busy_s", "s"),
    ("cyclic.generator_matrix_s", "cyclic.generator_matrix", "busy_s", "s"),
    ("gflinalg.to_digits_s", "gflinalg.to_digits", "busy_s", "s"),
    ("gflinalg.matmul_s", "gflinalg.matmul", "busy_s", "s"),
    ("gflinalg.conjugate_transpose_s", "gflinalg.conjugate_transpose", "busy_s",
     "s"),
    ("gflinalg.rank_s", "gflinalg.rank", "busy_s", "s"),
    ("rank_oracle.entanglement_rank_self_s", "rank_oracle.entanglement_rank",
     "self_s", "s"),
    ("rank_oracle.parity_orthogonal_self_s", "rank_oracle.parity_orthogonal",
     "self_s", "s"),
    ("cosets.decompose_s", "cosets.decompose", "busy_s", "s"),
    ("cosets.decompose_calls", "cosets.decompose", "calls", "count"),
    ("cosets.neg_q_image_s", "cosets.neg_q_image", "busy_s", "s"),
    ("cosets.neg_q_image_calls", "cosets.neg_q_image", "calls", "count"),
    ("cosets.run_defining_set_s", "cosets.run_defining_set", "busy_s", "s"),
    ("families.verify_family_self_s", "families.verify_family", "self_s", "s"),
    ("families.build_T1_s", "families.build_T1", "busy_s", "s"),
    ("families.build_T1_prime_self_s", "families.build_T1_prime", "self_s", "s"),
    ("verification.coset_identity_s", "verification.coset_identity", "busy_s",
     "s"),
    ("verification.coset_identity_calls", "verification.coset_identity", "calls",
     "count"),
)


class BenchError(Exception):
    """The run cannot produce a result."""


class Children:
    """Starts worker interpreters and makes sure none outlives the run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.current: subprocess.Popen | None = None
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        # Cache bytecode, as an installed package does, so that set-up
        # does not time the compiler.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, mode: str, trace: int = 0) -> tuple[tuple, dict, dict | None]:
        """((raw, scaled) set-up seconds, set-up record, result or None).

        Set-up runs from process start to the worker's first line, less the
        reference probe's time; the scaled value is at reference speed.
        """
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(trace), "--mode", mode]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env,
                                cwd=ROOT, text=True)
        self.current = proc
        try:
            first = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            self.stop()
        if code != 0 or not first:
            raise BenchError(f"worker ({mode}) exited with code {code}")
        info = json.loads(first)
        origin = Path(info["eaqmds_file"]).resolve()
        if PACKAGE.resolve() not in origin.parents:
            raise BenchError(f"eaqmds was imported from {origin}, not {PACKAGE}")
        result = None
        if mode != "probe":
            result = json.loads(rest.strip().splitlines()[-1])["result"]
        raw = elapsed - info["setup_probe_s"]
        return (raw, raw * info["setup_scale"]), info, result

    def stop(self):
        proc, self.current = self.current, None
        if proc is not None and proc.poll() is None:
            proc.kill()
        if proc is not None:
            proc.wait()
            proc.stdout.close()


def source_digest() -> str:
    """SHA-256 over the package sources, identifying the measured code."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_passes(children: Children, seconds: float, kinds) -> tuple[list, list]:
    """Run passes of the given trace kinds, in order, until time runs out.

    The first ``len(kinds)`` passes always run; after them ``kinds`` repeats
    while the next pass is expected to end within ``seconds``.
    """
    start = time.perf_counter()
    passes, setups = [], []
    i = 0
    while True:
        t0 = time.perf_counter()
        setup_s, _, result = children.run("pass", kinds[i % len(kinds)])
        result["traced"] = kinds[i % len(kinds)]
        passes.append(result)
        setups.append(setup_s)
        i += 1
        took = time.perf_counter() - t0
        if i >= len(kinds) and time.perf_counter() + took > start + seconds:
            return passes, setups


def per_item(passes: list, key: str) -> list[float]:
    """Each item's median time over the passes."""
    return [statistics.median(xs) for xs in zip(*(p[key] for p in passes))]


def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with TAIL_BEYOND items beyond it, and that
    count; with too few items, the slowest item and 0."""
    ranked = sorted(values, reverse=True)
    beyond = TAIL_BEYOND if len(ranked) > TAIL_BEYOND else 0
    return ranked[beyond], beyond


def end_to_end(passes: list, setups: list) -> tuple[dict, dict]:
    items = per_item(passes, "item_s")
    raw_items = per_item(passes, "item_raw_s")
    n = len(items)
    tail_s, beyond = tail(items)
    metrics = {
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "item_ms_p50": metric(statistics.median(items) * 1000, "ms"),
        "item_ms_tail": metric(tail_s * 1000, "ms"),
        "setup_s": metric(statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes),
                              "MB"),
    }
    attrs = {"items": n, "tail_percentile": round(100 * (n - beyond) / n, 2),
             "tail_items_beyond": beyond,
             "raw_wall_s": statistics.median(p["wall_raw_s"] for p in passes),
             "raw_setup_s": statistics.median(r for r, _ in setups),
             "raw_item_ms_p50": statistics.median(raw_items) * 1000,
             "raw_item_ms_tail": tail(raw_items)[0] * 1000}
    return metrics, attrs


def counts_of(result: dict) -> dict:
    t = result["trace"]
    counts = {name: rec["calls"] for name, rec in sorted(t["layers"].items())}
    counts.update(context_misses=t["context_misses"], matmul_ops=t["matmul_ops"],
                  bytes=t["bytes"])
    return counts


def per_layer(passes: list) -> tuple[dict, dict]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    first = traced[0]

    def layer(span, field):
        vals = [p["trace"]["layers"].get(span, {}).get(field, 0) for p in traced]
        return statistics.median(vals) if field != "calls" else vals[0]

    metrics = {name: metric(layer(span, field), unit)
               for name, span, field, unit in LAYER_METRICS}
    t = first["trace"]
    items = first["items"]
    metrics["fields.context_misses"] = metric(t["context_misses"], "count")
    metrics["gflinalg.matmul_ops"] = metric(t["matmul_ops"], "ops_computed")
    metrics["gflinalg.bytes"] = metric(t["bytes"], "B_computed")
    metrics["cosets.decompose_calls_per_item"] = metric(
        layer("cosets.decompose", "calls") / items, "1/item")
    metrics["cyclic.generator_polynomial_calls_per_item"] = metric(
        layer("cyclic.generator_polynomial", "calls") / items, "1/item")
    overhead = statistics.median(p["wall_s"] for p in traced) \
        - statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    attrs = {"traced_passes": len(traced), "untraced_passes": len(plain),
             "spans_per_pass": t["spans"], "unwrapped": t["missing"],
             "counts_repeat": all(counts_of(p) == counts_of(first) for p in traced),
             "counts": counts_of(first)}
    return metrics, attrs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="eaqmds verifier benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "oracle", "oracle-large"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no eaqmds package at {PACKAGE}", file=sys.stderr)
        return 2

    children = Children(args.workload, args.seed)

    def give_up(signum, frame):
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(RUN_LIMIT_S)
    try:
        setups = []
        setup_s, info, check = children.run("selfcheck")
        setups.append(setup_s)
        for _ in range(SETUP_PROBES - 1):
            setups.append(children.run("probe")[0])
        kinds = (1, 0, 1) if args.trace else (0,)
        passes, pass_setups = run_passes(children, args.seconds, kinds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        children.stop()
    setups += pass_setups

    # The self-check gate: the checker passes a clean sweep and fails a
    # fault-injected one.
    gate_ok = check["clean"]["failed"] == 0 and check["fault"]["failed"] > 0
    attempted = sum(p["attempted"] for p in passes) + 1
    failed = sum(p["failed"] for p in passes) + (0 if gate_ok else 1)
    failures = [f for p in passes for f in p["failures"]][:5]

    if args.trace:
        metrics, attrs = per_layer(passes)
        if not attrs["counts_repeat"]:
            failed += 1
            attempted += 1
            failures.append("call counts differ between traced passes")
    else:
        metrics, attrs = end_to_end(passes, setups)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "python": info["python"], "numpy": info["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "reference_probe_ms": statistics.median(p["probe_ms"] for p in passes),
        "setup_samples_s": [round(s, 4) for _, s in setups],
        "selfcheck": check, "failed_frac": failed / attempted,
        "failures": failures, **attrs,
    }
    print(json.dumps({"run": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
