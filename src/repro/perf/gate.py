"""The statistical perf-regression gate: ``repro perf-gate``.

Compares the newest bench-history record against its baseline (the
most recent earlier record from the same host) kernel by kernel, and
decides *statistically* — the way the paper decides whether a counter
matters — instead of eyeballing one number:

* **magnitude** — the ratio of best-of-N minima (the least-perturbed
  observation of identical deterministic work);
* **significance** — a one-sided Mann-Whitney U test over the full
  repetition samples (:func:`repro.util.stats.mann_whitney_u`): is the
  new sample stochastically slower than the baseline sample?

Both read host-speed-rescaled repetitions when the two records carry
reference rounds (see :func:`host_scales`), so that a host
that drifted slower between the records is not read as a slower
kernel.  A kernel fails only when the slowdown is *both* large (ratio
at or beyond ``fail_ratio``) and significant (p below ``alpha``); smaller
but significant slowdowns warn.  That is the "warn on small deltas,
fail on significant ones" CI policy — the 1.86x-9.41x kernel wins
recorded in BENCH_core_model.json keep a guard without the gate
tripping on scheduler noise.  Comparisons across different host
fingerprints are never failed, only warned: two machines' wall-clock
is not one distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.perf.history import describe_record, is_dirty_record, latest_pair
from repro.util.stats import mann_whitney_u, percentile

#: Verdict levels, in increasing severity.
OK = "ok"
IMPROVED = "improved"
INFO = "info"
WARN = "warn"
REGRESSED = "regressed"

#: Default thresholds: a significant >= 30% slowdown of a kernel's
#: best time fails; a significant >= 10% slowdown warns.  (Tightened
#: from 1.4/1.15 once the batch-engine trio joined the suite: the
#: best-of-N minima of these kernels replicate well under 10% on one
#: host, so a real 30% regression is far outside repetition noise.)
DEFAULT_FAIL_RATIO = 1.3
DEFAULT_WARN_RATIO = 1.10
DEFAULT_ALPHA = 0.05
#: Rescaled repetitions are seconds on a host whose median reference
#: round takes this long.
REFERENCE_ROUND_S = 0.002


@dataclass(frozen=True)
class KernelVerdict:
    """One kernel's comparison between baseline and latest."""

    kernel: str
    verdict: str
    ratio: Optional[float] = None
    p_value: Optional[float] = None
    baseline_best_s: Optional[float] = None
    latest_best_s: Optional[float] = None
    note: str = ""

    def render(self) -> str:
        ratio = "-" if self.ratio is None else f"{self.ratio:6.2f}x"
        p = "-" if self.p_value is None else f"{self.p_value:.4f}"
        return (
            f"  {self.kernel:20s} {self.verdict.upper():10s} "
            f"ratio {ratio:>8s}  p {p:>7s}  {self.note}"
        )


@dataclass
class GateReport:
    """The whole gate run: verdicts plus the records they compare."""

    verdicts: List[KernelVerdict] = field(default_factory=list)
    baseline_id: str = ""
    latest_id: str = ""
    skipped_reason: str = ""
    #: Hygiene warnings (e.g. dirty-working-tree records skipped or
    #: under judgment); never affect :attr:`passed`.
    notes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.verdict != REGRESSED for v in self.verdicts)

    @property
    def warnings(self) -> List[KernelVerdict]:
        return [v for v in self.verdicts if v.verdict == WARN]

    def render_lines(self) -> List[str]:
        lines = ["", "=" * 72, "Perf-regression gate", "=" * 72]
        if self.skipped_reason:
            lines.append(f"  SKIPPED: {self.skipped_reason}")
            for note in self.notes:
                lines.append(f"  note: {note}")
            lines.append("  verdict: PASS (nothing to compare)")
            return lines
        lines.append(f"  baseline: {self.baseline_id}")
        lines.append(f"  latest:   {self.latest_id}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append("-" * 72)
        lines.extend(v.render() for v in self.verdicts)
        lines.append("-" * 72)
        lines.append(f"  verdict: {'PASS' if self.passed else 'FAIL'}")
        return lines

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "baseline": self.baseline_id,
            "latest": self.latest_id,
            "skipped_reason": self.skipped_reason,
            "notes": list(self.notes),
            "verdicts": [
                {
                    "kernel": v.kernel,
                    "verdict": v.verdict,
                    "ratio": v.ratio,
                    "p_value": v.p_value,
                    "baseline_best_s": v.baseline_best_s,
                    "latest_best_s": v.latest_best_s,
                    "note": v.note,
                }
                for v in self.verdicts
            ],
        }


def _kernel_entries(record: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """The comparable kernel results of one record: name -> entry."""
    from repro.benchio import bench_results

    return {
        name: entry
        for name, entry in bench_results(record).items()
        if isinstance(entry, dict) and "best_s" in entry
    }


def _same_work(a: Dict[str, object], b: Dict[str, object]) -> bool:
    """Two entries measured identical work (same size parameters)."""
    keys = (set(a) | set(b)) - {"reps_s", "rounds_s", "best_s", "median_s", "spread"}
    return all(a.get(k) == b.get(k) for k in keys)


def host_scales(
    base: Dict[str, object], new: Dict[str, object]
) -> Optional[Tuple[float, float]]:
    """Factors that put two entries' times on one host speed.

    When both entries carry reference rounds (``rounds_s``), each
    entry's times are scaled by ``REFERENCE_ROUND_S`` over its median
    round, so a host-speed shift between the records cancels.
    Otherwise (records from before the rounds) returns None and the
    raw times are compared.
    """
    if not (base.get("rounds_s") and new.get("rounds_s")):
        return None

    def scale(entry: Dict[str, object]) -> float:
        rounds = [float(r) for r in entry["rounds_s"]]
        return REFERENCE_ROUND_S / percentile(rounds, 50.0)

    return scale(base), scale(new)


def compare_records(
    baseline: Dict[str, object],
    latest: Dict[str, object],
    fail_ratio: float = DEFAULT_FAIL_RATIO,
    warn_ratio: float = DEFAULT_WARN_RATIO,
    alpha: float = DEFAULT_ALPHA,
    cross_host: bool = False,
) -> GateReport:
    """Judge ``latest`` against ``baseline`` kernel by kernel.

    ``cross_host`` caps every verdict at WARN — set when the only
    available baseline came from a different host fingerprint.
    """
    report = GateReport(
        baseline_id=describe_record(baseline), latest_id=describe_record(latest)
    )
    base_entries = _kernel_entries(baseline)
    new_entries = _kernel_entries(latest)
    for kernel in sorted(set(base_entries) | set(new_entries)):
        base = base_entries.get(kernel)
        new = new_entries.get(kernel)
        if base is None:
            report.verdicts.append(
                KernelVerdict(kernel, INFO, note="new kernel; no baseline")
            )
            continue
        if new is None:
            report.verdicts.append(
                KernelVerdict(kernel, INFO, note="kernel absent from latest record")
            )
            continue
        if not _same_work(base, new):
            report.verdicts.append(
                KernelVerdict(
                    kernel, INFO, note="size parameters changed; not comparable"
                )
            )
            continue
        scales = host_scales(base, new)
        base_scale, new_scale = scales or (1.0, 1.0)
        base_best = float(base["best_s"]) * base_scale
        new_best = float(new["best_s"]) * new_scale
        ratio = new_best / base_best if base_best > 0 else float("inf")
        base_reps = [float(t) * base_scale for t in base.get("reps_s", ())]
        new_reps = [float(t) * new_scale for t in new.get("reps_s", ())]
        base_reps = base_reps or [base_best]
        new_reps = new_reps or [new_best]
        if len(base_reps) >= 2 and len(new_reps) >= 2:
            p = mann_whitney_u(base_reps, new_reps).p_greater
            significant = p < alpha
        else:
            # Single-shot record (schema-1 era): magnitude only, and
            # without a distribution it can never *fail* the gate.
            p = None
            significant = False
        verdict = OK
        note = ""
        if ratio >= fail_ratio and significant:
            verdict = REGRESSED
            note = f"significant slowdown >= {fail_ratio:.2f}x"
        elif ratio >= warn_ratio and (significant or p is None):
            verdict = WARN
            note = (
                "slowdown (single-shot baseline; cannot test significance)"
                if p is None
                else f"significant slowdown >= {warn_ratio:.2f}x"
            )
        elif ratio <= 1.0 / warn_ratio:
            verdict = IMPROVED
            note = "faster than baseline"
        if cross_host and verdict == REGRESSED:
            verdict = WARN
            note += " (cross-host comparison; warn only)"
        if scales is not None:
            note = f"{note} (host-speed rescaled)".lstrip()
        report.verdicts.append(
            KernelVerdict(
                kernel=kernel,
                verdict=verdict,
                ratio=round(ratio, 3),
                p_value=None if p is None else round(p, 5),
                baseline_best_s=base_best,
                latest_best_s=new_best,
                note=note,
            )
        )
    return report


def evaluate_gate(
    records: List[Dict[str, object]],
    fail_ratio: float = DEFAULT_FAIL_RATIO,
    warn_ratio: float = DEFAULT_WARN_RATIO,
    alpha: float = DEFAULT_ALPHA,
) -> GateReport:
    """Gate the newest history record against its best baseline.

    Baseline selection: the most recent earlier record from the same
    host; if none exists, the most recent earlier record from any host
    (warn-only comparison); with fewer than two records the gate
    passes with an explicit "nothing to compare" report.  An envelope
    measured in a dirty working tree (``git describe`` ending in
    ``-dirty``) is never promoted to baseline — the measured code was
    not any commit — and a dirty *latest* record is flagged in the
    report notes.
    """
    if len(records) < 2:
        return GateReport(
            skipped_reason=(
                "history has fewer than two records; run `repro bench` "
                "to record a baseline first"
            )
        )
    notes: List[str] = []
    if is_dirty_record(records[-1]):
        notes.append(
            "latest record was measured in a dirty working tree "
            "(git describe ends in -dirty); it will not serve as a "
            "future baseline"
        )
    pair = latest_pair(records, same_host=True, skip_dirty=True)
    if pair is not None:
        if latest_pair(records, same_host=True) != pair:
            notes.append(
                "skipped more recent same-host baseline(s) measured "
                "in a dirty working tree"
            )
        baseline, latest = pair
        report = compare_records(
            baseline, latest, fail_ratio, warn_ratio, alpha, cross_host=False
        )
        report.notes.extend(notes)
        return report
    if latest_pair(records, same_host=True) is not None:
        notes.append(
            "every same-host baseline was measured in a dirty working "
            "tree; falling back to a cross-host comparison"
        )
    pair = latest_pair(records, same_host=False, skip_dirty=True)
    if pair is None:
        report = GateReport(
            skipped_reason=(
                "no clean baseline: every earlier record was measured "
                "in a dirty working tree (git describe ends in -dirty)"
            )
        )
        report.notes.extend(notes)
        return report
    baseline, latest = pair
    report = compare_records(
        baseline, latest, fail_ratio, warn_ratio, alpha, cross_host=True
    )
    report.notes.extend(notes)
    return report


# ----------------------------------------------------------------------
# perf-diff: the human comparison between any two trajectory points
# ----------------------------------------------------------------------
def diff_lines(
    baseline: Dict[str, object], latest: Dict[str, object]
) -> List[str]:
    """Side-by-side kernel table between two records."""
    lines = [
        "",
        "=" * 72,
        "Perf diff",
        "=" * 72,
        f"  A: {describe_record(baseline)}",
        f"  B: {describe_record(latest)}",
        "-" * 72,
        f"  {'kernel':20s} {'A best_s':>10s} {'B best_s':>10s} "
        f"{'B/A':>7s} {'A spread':>9s} {'B spread':>9s}",
    ]
    base_entries = _kernel_entries(baseline)
    new_entries = _kernel_entries(latest)
    for kernel in sorted(set(base_entries) | set(new_entries)):
        base = base_entries.get(kernel)
        new = new_entries.get(kernel)
        if base is None or new is None:
            present = "B only" if base is None else "A only"
            lines.append(f"  {kernel:20s} ({present})")
            continue
        a_best = float(base["best_s"])
        b_best = float(new["best_s"])
        ratio = b_best / a_best if a_best > 0 else float("inf")
        lines.append(
            f"  {kernel:20s} {a_best:>10.4f} {b_best:>10.4f} "
            f"{ratio:>6.2f}x {float(base.get('spread', 0.0)) * 100:>8.1f}% "
            f"{float(new.get('spread', 0.0)) * 100:>8.1f}%"
        )
    return lines
