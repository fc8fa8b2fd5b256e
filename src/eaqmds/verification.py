"""Property sweeps across the admissible parameter space.

Drives three layers of checks: the per-instance structural report from
``verify_family``, the -q coset identity, a proven congruence, for every
(q, n) pair in range, and the rank oracle for every instance under its
size guard.  Results are aggregated into deterministic per-check counts
so a sweep can be rerun and compared byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .families import (CHECK_NAMES, DEFAULT_M_MAX, DEFAULT_Q_MAX, closed_form,
                       sweep_specs, verify_family)
from .rank_oracle import (DEFAULT_N_MAX, entanglement_rank,
                          generator_parity_orthogonal)


def coset_identity_holds(q: int, n: int) -> bool:
    """Whether -qC_{uq+v} = C_{vq-u} for 0 <= u, v < q, skipping i = uq + v
    = 0 mod n (q >= 2, n >= 1): a congruence, proved here, not a q x q grid.

    With x = -qi and w = vq - u, a cell holds when n divides x + w =
    -u(q^2+1) or w - x = u(q^2-1) + 2qv, so all do if n | q^2 + 1.  Else
    each cell (1, v) with q + v != 0 mod n needs n | q^2 - 1 + 2qv.  For
    n > 2q, v = 0 and 1 give n | 2q; for 3 <= n <= 2q and q >= 4, two
    adjacent v <= 3 give n | 2q and n | q^2 - 1, so n | 2: both impossible.
    n <= 2, and q in {2, 3}, run through the cell loop of
    ``tests/residue_reference``, add (2, 3) and (3, 4), where the skip
    hides every failing cell.
    """
    return (q * q + 1) % n == 0 or (q, n) in ((2, 3), (3, 4))


@dataclass
class SweepSummary:
    """Aggregated pass/fail counts from one verification sweep."""

    m_max: int
    q_max: int
    oracle_n_max: int
    fault_injected: bool
    spec_count: int = 0
    check_counts: dict[str, list[int]] = field(  # name -> [pass, fail]
        default_factory=lambda: {name: [0, 0] for name in CHECK_NAMES})
    identity_counts: list[int] = field(default_factory=lambda: [0, 0])
    oracle_counts: list[int] | None = None  # None: skipped

    @property
    def ok(self) -> bool:
        """No check failed, and the sweep was not empty (which verifies nothing)."""
        counts = [*self.check_counts.values(), self.identity_counts,
                  self.oracle_counts or [0, 0]]
        return self.spec_count > 0 and not any(f for _, f in counts)

    def as_dict(self) -> dict:
        def counts(pf: list[int]) -> dict:
            return {"passed": pf[0], "failed": pf[1]}

        return {
            "bounds": {"m_max": self.m_max, "q_max": self.q_max,
                       "oracle_n_max": self.oracle_n_max},
            "fault_injected": self.fault_injected,
            "specs": self.spec_count,
            "checks": {name: counts(pf) for name, pf in self.check_counts.items()},
            "coset_identity": counts(self.identity_counts),
            "oracle": {"status": "skipped"} if self.oracle_counts is None else {
                "status": "ran", "instances": sum(self.oracle_counts),
                **counts(self.oracle_counts)},
            "ok": self.ok,
        }


def run_verification_sweep(m_max: int = DEFAULT_M_MAX,
                           q_max: int = DEFAULT_Q_MAX,
                           oracle_n_max: int = DEFAULT_N_MAX,
                           fault_inject: bool = False) -> SweepSummary:
    """Run the full property sweep and aggregate per-check counts.

    With ``fault_inject`` the first instance that can absorb a +1 shift of
    its run half-length is verified against the mutated defining set; the
    resulting failures prove the checks can fail at all.
    """
    summary = SweepSummary(m_max=m_max, q_max=q_max, oracle_n_max=oracle_n_max,
                           fault_injected=fault_inject,
                           oracle_counts=[0, 0] if oracle_n_max > 0 else None)

    identity_seen: set[tuple[int, int]] = set()
    fault_pending = fault_inject

    for spec in sweep_specs(m_max, q_max):
        fault_delta = 0
        if fault_pending and closed_form(spec).delta + 1 <= spec.s:
            fault_delta = 1
            fault_pending = False
        report = verify_family(spec, fault_delta=fault_delta)
        for name, passed in report.checks.items():
            summary.check_counts[name][0 if passed else 1] += 1
        summary.spec_count += 1

        if (spec.q, spec.n) not in identity_seen:
            identity_seen.add((spec.q, spec.n))
            ok = coset_identity_holds(spec.q, spec.n)
            summary.identity_counts[0 if ok else 1] += 1

        if summary.oracle_counts is not None and spec.n <= oracle_n_max:
            rep = entanglement_rank(spec, n_max=oracle_n_max)
            ok = rep.match and rep.matches_closed_form \
                and generator_parity_orthogonal(spec)
            summary.oracle_counts[0 if ok else 1] += 1
    return summary
