"""One benchmark pass of the eaqmds verifier, run in a fresh interpreter.

``run.py`` starts this script once per pass so that every pass rebuilds
the ``lru_cache``d field contexts, as each ``eaqmds verify`` call does.
The script imports the package, enumerates the workload's instances,
prints a ``{"setup_done": ...}`` line (the parent timestamps it to get the
set-up time), then, unless ``--mode probe``, runs one pass and prints one
``{"result": ...}`` line.

The package is driven only through its public functions.  With
``--trace 1`` those functions are wrapped at the names where callers look
them up; each wrapper records a span (name, start, end, parent span, item
id) in memory, and the spans are reduced to per-layer numbers when the
pass ends.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from types import SimpleNamespace

# Bounds of today's default ``eaqmds verify``.
M_MAX, Q_MAX = 5, 250
# A full default sweep takes about 35 s, the full n <= 300 oracle about
# 42 s and all 19 published rows with 300 < n <= 700 about 67 s on a
# 2-core host: too long to repeat within one run.  Each workload is
# therefore a fixed, seed-independent subset that keeps its character.
SWEEP_STRIDE = 7          # every 7th spec of the default sweep: 492 specs
ORACLE_N_MAX = 150        # the oracle stage at n <= 150: 29 instances
LARGE_N = 421             # the 7 published rows at n = 421 (q = 29)
EXPECTED_ITEMS = {"sweep": 492, "oracle": 29, "oracle-large": 7}
EXPECTED_IDENTITY_PAIRS = 92


# ---------------------------------------------------------------------------
# host speed


def reference_probe() -> int:
    """A fixed piece of set and integer work, like the verifier's own."""
    s = {(i * 7919) % 30011 for i in range(2000)}
    return len(s & {(-29 * i) % 30011 for i in s})


class HostSpeed:
    """Times the reference probe every SAMPLE_S of wall time, from SIGALRM.

    The host's speed drifts by tens of percent within seconds, because
    other tenants contend for its caches and memory.  A probe with the
    same kind of work slows down with the measured code, so each timed
    segment is also reported scaled by REF_PROBE_S over the probe's median
    time during (and just before) that segment: its time at a steady
    reference speed.  The probe's own time is taken out of every segment.
    """

    SAMPLE_S = 0.02
    REF_PROBE_S = 0.0006   # the probe's typical time on the 2-core reference host
    WINDOW = 4             # probe samples before a segment that also count

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_probe()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def mark(self) -> tuple[float, int, float]:
        return time.perf_counter(), len(self.samples), self.spent

    def scale(self, mark) -> float:
        """Reference over observed probe time since (and just before) ``mark``."""
        window = self.samples[max(0, mark[1] - self.WINDOW):]
        return self.REF_PROBE_S / statistics.median(window) if window else 1.0

    def since(self, mark) -> tuple[float, float]:
        """(raw, scaled) seconds since ``mark``, probe time excluded."""
        t0, _, spent0 = mark
        raw = time.perf_counter() - t0 - (self.spent - spent0)
        return raw, raw * self.scale(mark)


# ---------------------------------------------------------------------------
# the benchmark's own entanglement count, independent of eaqmds.closed_form


def paper_c(case: int, m: int, alpha: int) -> int:
    """The entanglement count c as printed in each family's theorem."""
    a = m * m + 1
    if case == 1:
        return 4 * alpha * (a * alpha + m)
    if case == 2:
        return 4 * alpha * (a * alpha + a + m) + a + 2 * m
    if case == 3:
        return 4 * alpha * (a * alpha + a - m) + a - 2 * m
    return 4 * alpha * (a * alpha + 2 * a - m) + 4 * (a - m)


class Tally:
    """Attempted and failed checks, with the first few failures named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(label)

    def add_summary(self, summary: dict):
        """Count the checks of a ``SweepSummary.as_dict()``."""
        sections = dict(summary["checks"])
        sections["coset_identity"] = summary["coset_identity"]
        if summary["oracle"]["status"] == "ran":
            sections["oracle"] = summary["oracle"]
        for name, counts in sections.items():
            self.attempted += counts["passed"] + counts["failed"]
            self.failed += counts["failed"]
            if counts["failed"] and len(self.failures) < 5:
                self.failures.append(f"summary {name}")


# ---------------------------------------------------------------------------
# workloads: instance enumeration (set-up) and one checked call per item


def load_package() -> SimpleNamespace:
    """The package modules the benchmark calls or traces."""
    names = ("eaqmds", "eaqmds.families", "eaqmds.rank_oracle",
             "eaqmds.verification", "eaqmds._gflinalg",
             "eaqmds.published_params")
    mods = [importlib.import_module(n) for n in names]
    return SimpleNamespace(root=mods[0], families=mods[1], rank_oracle=mods[2],
                           verification=mods[3], gflinalg=mods[4],
                           published=mods[5])


def enumerate_workload(pkg, workload: str):
    specs = list(pkg.families.sweep_specs(M_MAX, Q_MAX))
    if workload == "sweep":
        pairs = sorted({(s.q, s.n) for s in specs})
        return specs[::SWEEP_STRIDE], pairs
    if workload == "oracle":
        return [s for s in specs if s.n <= ORACLE_N_MAX], []
    if workload == "oracle-large":
        rows = [(case, row) for case, rs in pkg.published.PUBLISHED_ROWS.items()
                for row in rs if row[2] == LARGE_N]
        return [(pkg.families.spec_from_q(case, m, q, alpha), c)
                for case, (m, q, n, alpha, kq, d, c) in rows], []
    raise ValueError(f"unknown workload {workload!r}")


def seed_order(workload: str, items: list, pairs: list, seed: int):
    """The seed sets the instance order; the set of instances is fixed.

    Oracle workloads keep the instances of one (q, n) pair together, in
    sweep order, and shuffle the pairs, so the instance that pays for the
    field context is the same in every order.
    """
    rng = random.Random(seed)
    if workload == "sweep":
        items, pairs = items[:], pairs[:]
        rng.shuffle(items)
        rng.shuffle(pairs)
        return items, pairs
    groups: dict[tuple[int, int], list] = {}
    for it in items:
        spec = it[0] if isinstance(it, tuple) else it
        groups.setdefault((spec.q, spec.n), []).append(it)
    keys = list(groups)
    rng.shuffle(keys)
    return [it for k in keys for it in groups[k]], []


def label(spec) -> str:
    return f"case={spec.case} m={spec.m} k={spec.k} alpha={spec.alpha} " \
           f"q={spec.q} n={spec.n}"


def run_item(pkg, workload: str, item, tally: Tally, speed: HostSpeed):
    """Time one instance's calls into the package, then check the outputs."""
    if workload == "sweep":
        spec = item
        mark = speed.mark()
        report = pkg.families.verify_family(spec)
        dt = speed.since(mark)
        for name, ok in report.checks.items():
            tally.check(f"{label(spec)} {name}", ok)
        tally.check(f"{label(spec)} z1_vs_paper_c",
                    report.z1_size == paper_c(spec.case, spec.m, spec.alpha))
        return dt
    if workload == "oracle":
        spec = item
        mark = speed.mark()
        rep = pkg.rank_oracle.entanglement_rank(spec)
        orth = pkg.rank_oracle.generator_parity_orthogonal(spec)
        dt = speed.since(mark)
        c = paper_c(spec.case, spec.m, spec.alpha)
        tally.check(f"{label(spec)} rank_vs_z1", rep.rank_hh_dagger == rep.z1_size)
        tally.check(f"{label(spec)} rank_vs_closed_form",
                    rep.rank_hh_dagger == rep.closed_form_c == c)
        tally.check(f"{label(spec)} G_Ht_zero", orth)
        return dt
    spec, published_c = item
    mark = speed.mark()
    rep = pkg.rank_oracle.entanglement_rank(spec, n_max=LARGE_N)
    dt = speed.since(mark)
    tally.check(f"{label(spec)} rank_vs_published_c",
                rep.rank_hh_dagger == published_c)
    tally.check(f"{label(spec)} rank_vs_z1", rep.rank_hh_dagger == rep.z1_size)
    return dt


def self_check(pkg) -> dict:
    """Prove the checker can fail: a fault-injected sweep must fail checks."""
    out = {}
    for fault in (False, True):
        summary = pkg.verification.run_verification_sweep(
            m_max=1, q_max=30, oracle_n_max=0, fault_inject=fault)
        tally = Tally()
        tally.add_summary(summary.as_dict())
        out["fault" if fault else "clean"] = {
            "attempted": tally.attempted, "failed": tally.failed}
    return out


# ---------------------------------------------------------------------------
# tracing


# (module, attribute, span name): every name is where the package's own
# callers (or this benchmark) look the function up at call time.
TRACE_POINTS = (
    ("families", "verify_family", "families.verify_family"),
    ("families", "build_T1", "families.build_T1"),
    ("families", "build_T1_prime", "families.build_T1_prime"),
    ("families", "build_defining_set", "families.build_defining_set"),
    ("families", "decompose", "cosets.decompose"),
    ("families", "neg_q_image", "cosets.neg_q_image"),
    ("families", "run_defining_set", "cosets.run_defining_set"),
    ("rank_oracle", "build_defining_set", "families.build_defining_set"),
    ("rank_oracle", "decompose", "cosets.decompose"),
    ("rank_oracle", "code_context", "fields.context"),
    ("rank_oracle", "generator_polynomial", "cyclic.generator_polynomial"),
    ("rank_oracle", "parity_check_matrix", "cyclic.parity_check"),
    ("rank_oracle", "generator_matrix", "cyclic.generator_matrix"),
    ("rank_oracle", "entanglement_rank", "rank_oracle.entanglement_rank"),
    ("rank_oracle", "generator_parity_orthogonal", "rank_oracle.parity_orthogonal"),
    ("gflinalg", "to_digits", "gflinalg.to_digits"),
    ("gflinalg", "matmul_digits", "gflinalg.matmul"),
    ("gflinalg", "conjugate_transpose_digits", "gflinalg.conjugate_transpose"),
    ("gflinalg", "rank_digits", "gflinalg.rank"),
    ("verification", "coset_identity_holds", "verification.coset_identity"),
)


class Tracer:
    """In-memory span recorder installed around the trace points."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        # (name, start, end, parent, item, reference-probe seconds inside)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.item = -1
        self.matmul_ops = 0
        self.bytes = 0
        self.missing: list[str] = []
        self.originals: dict[str, object] = {}

    def install(self, pkg):
        for module_key, attr, name in TRACE_POINTS:
            module = getattr(pkg, module_key)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self.originals.setdefault(name, fn)
            setattr(module, attr, self._wrap(fn, name))

    def context_misses(self) -> int:
        """Misses of the field-context cache, from its ``cache_info()``."""
        info = getattr(self.originals.get("fields.context"), "cache_info", None)
        return info().misses if info else 0

    def _wrap(self, fn, name):
        spans, stack, speed = self.spans, self.stack, self.speed
        linalg = name.startswith("gflinalg.")

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            probe0 = speed.spent
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item,
                              speed.spent - probe0)
            if linalg:
                self._count_linalg(name, args, result)
            return result

        return traced

    def _count_linalg(self, name, args, result):
        """Operation count and bytes touched, computed from array shapes."""
        arrays = [a for a in (*args, result) if hasattr(a, "nbytes")]
        self.bytes += sum(a.nbytes for a in arrays)
        if name == "gflinalg.matmul":
            a, b = args[0], args[1]
            e = a.shape[2]
            self.matmul_ops += a.shape[0] * a.shape[1] * b.shape[1] * e * e

    def layer_totals(self, scale: float) -> dict:
        """Busy seconds, self seconds and calls per span name.

        Durations leave out the reference probe and are multiplied by
        ``scale``, the pass's reference-speed factor.
        """
        durations = [(end - start - probe) * scale
                     for _, start, end, _, _, probe in self.spans]
        child_time = [0.0] * len(self.spans)
        for span, dur in zip(self.spans, durations):
            if span[3] >= 0:
                child_time[span[3]] += dur
        out: dict[str, list] = {}
        for i, (span, dur) in enumerate(zip(self.spans, durations)):
            rec = out.setdefault(span[0], [0.0, 0.0, 0])
            rec[0] += dur
            rec[1] += dur - child_time[i]
            rec[2] += 1
        return {k: {"busy_s": v[0], "self_s": v[1], "calls": v[2]}
                for k, v in out.items()}


# ---------------------------------------------------------------------------


def run_pass(pkg, workload: str, items: list, pairs: list, speed: HostSpeed,
             tracer: Tracer | None):
    """One pass; item times are (raw, scaled) pairs, see HostSpeed."""
    tally = Tally()
    item_s, pair_s = [], []
    start = speed.mark()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        item_s.append(run_item(pkg, workload, item, tally, speed))
    for j, (q, n) in enumerate(pairs):
        if tracer is not None:
            tracer.item = len(items) + j
        mark = speed.mark()
        ok = pkg.verification.coset_identity_holds(q, n)
        pair_s.append(speed.since(mark))
        tally.check(f"coset_identity q={q} n={n}", ok)
    tally.check(f"item_count {len(items)}", len(items) == EXPECTED_ITEMS[workload])
    tally.check(f"identity_pair_count {len(pairs)}", len(pairs) == (
        EXPECTED_IDENTITY_PAIRS if workload == "sweep" else 0))
    wall_raw = sum(raw for raw, _ in item_s + pair_s)
    wall = sum(scaled for _, scaled in item_s + pair_s)
    result = {
        "wall_raw_s": wall_raw,
        "wall_s": wall,
        "item_s": [scaled for _, scaled in item_s],
        "item_raw_s": [raw for raw, _ in item_s],
        "probe_ms": 1000 * statistics.median(speed.samples[start[1]:] or [0.0]),
        "items": len(items),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = {
            "layers": tracer.layer_totals(wall / (wall_raw or 1.0)),
            "context_misses": tracer.context_misses(),
            "matmul_ops": tracer.matmul_ops,
            "bytes": tracer.bytes,
            "missing": tracer.missing,
            "spans": len(tracer.spans),
        }
    return result


def emit(obj: dict):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "oracle", "oracle-large"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("probe", "selfcheck", "pass"),
                    default="pass")
    args = ap.parse_args(argv)

    # Sampling starts before the imports so that set-up can be scaled too.
    speed = HostSpeed()
    speed.start()
    try:
        setup = speed.mark()
        pkg = load_package()
        items, pairs = enumerate_workload(pkg, args.workload)
        items, pairs = seed_order(args.workload, items, pairs, args.seed)
        emit({"setup_done": True, "setup_scale": speed.scale(setup),
              "setup_probe_s": speed.spent - setup[2],
              "eaqmds_file": pkg.root.__file__,
              "numpy": importlib.import_module("numpy").__version__,
              "python": sys.version.split()[0]})
        if args.mode == "probe":
            return 0
        if args.mode == "selfcheck":
            emit({"result": self_check(pkg)})
            return 0
        tracer = None
        if args.trace:
            tracer = Tracer(speed)
            tracer.install(pkg)
        emit({"result": run_pass(pkg, args.workload, items, pairs, speed, tracer)})
    finally:
        speed.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
