"""Fault injection and resilience accounting for the simulators.

The configuration side lives in :mod:`repro.config`
(:class:`~repro.config.FaultEvent`, :class:`~repro.config.FaultConfig`,
:class:`~repro.config.RetryPolicy`,
:class:`~repro.config.DegradationPolicy`); this module is the runtime
side:

* :class:`FaultSchedule` — the ordered event list, queried once per
  tick for the :class:`FaultModifiers` currently in force;
* :class:`FaultModifiers` — the flattened view the tick loops consume
  (server down? which blades? what factor on DB/disk/interconnect?);
* :func:`backoff_delay_s` — exponential backoff with uniform jitter,
  shared by the single-server driver and any future cluster client;
* :class:`ResilienceTracker` — per-run counters (offered, retries,
  timeouts, failures, shed, zombies, downtime) frozen into a
  :class:`ResilienceStats` attached to the run result.

Everything here is gated: with the default empty
:class:`~repro.config.FaultConfig` no modifier is ever computed, no
extra random draw happens, and runs are bit-identical to the
pre-subsystem simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import FrozenSet, List, Tuple

from repro.config import FaultEvent, RetryPolicy
from repro.util.units import MB


@dataclass(frozen=True)
class FaultModifiers:
    """Every fault effect in force at one instant, flattened.

    The neutral values are chosen so applying them is the identity:
    factors of 1.0, probabilities of 0.0, no downed components.
    """

    #: The whole (single-server) SUT is down.
    server_down: bool = False
    #: Downed app blades (cluster deployments).
    blades_down: FrozenSet[int] = frozenset()
    #: Multiplier on DB2 per-query CPU cost.
    db_cpu_factor: float = 1.0
    #: Multiplier on the buffer-pool miss probability.
    db_miss_factor: float = 1.0
    #: Multiplier on per-request disk service time.
    disk_service_factor: float = 1.0
    #: Multiplier on cluster per-hop interconnect latency.
    hop_latency_factor: float = 1.0
    #: Per-transaction interconnect drop probability (cluster).
    net_loss_p: float = 0.0
    #: Extra live-set bytes pinned (GC pressure).
    live_extra_bytes: int = 0

    @property
    def neutral(self) -> bool:
        return self == NO_FAULTS


#: Shared neutral instance: what an empty schedule always returns.
NO_FAULTS = FaultModifiers()


class FaultSchedule:
    """The run's fault events, queryable per tick.

    The schedule is tiny (a handful of events), so the per-tick query
    is a linear scan over events that have started and not yet been
    retired; once every event has ended the scan short-circuits.
    """

    def __init__(self, events: Tuple[FaultEvent, ...] = ()):
        self.events = tuple(sorted(events, key=lambda e: (e.start_s, e.kind)))
        self.active = bool(self.events)
        self._horizon = max((e.end_s for e in self.events), default=0.0)

    def modifiers_at(self, t_s: float) -> FaultModifiers:
        """The combined :class:`FaultModifiers` in force at ``t_s``.

        Overlapping faults of the same kind compound multiplicatively
        (factors), saturate (probabilities), or sum (live-set bytes).
        """
        if not self.active or t_s >= self._horizon:
            return NO_FAULTS
        server_down = False
        blades: List[int] = []
        db_cpu = 1.0
        db_miss = 1.0
        disk = 1.0
        hop = 1.0
        loss = 0.0
        live_extra = 0
        hit = False
        for event in self.events:
            if event.start_s > t_s:
                break
            if not event.active_at(t_s):
                continue
            hit = True
            if event.kind == "tier_crash":
                if event.target < 0:
                    server_down = True
                else:
                    blades.append(event.target)
            elif event.kind == "db_slowdown":
                db_cpu *= event.magnitude
                db_miss *= event.magnitude
            elif event.kind == "disk_degraded":
                disk *= event.magnitude
            elif event.kind == "net_latency":
                hop *= event.magnitude
            elif event.kind == "net_loss":
                loss = 1.0 - (1.0 - loss) * (1.0 - event.magnitude)
            elif event.kind == "gc_pressure":
                live_extra += int(event.magnitude * MB)
        if not hit:
            return NO_FAULTS
        return FaultModifiers(
            server_down=server_down,
            blades_down=frozenset(blades),
            db_cpu_factor=db_cpu,
            db_miss_factor=db_miss,
            disk_service_factor=disk,
            hop_latency_factor=hop,
            net_loss_p=loss,
            live_extra_bytes=live_extra,
        )

    def clear_times(self) -> List[float]:
        """End times of every event (recovery measurement points)."""
        return sorted({e.end_s for e in self.events})


def backoff_delay_s(policy: RetryPolicy, attempt: int, rng: random.Random) -> float:
    """Backoff before retry number ``attempt`` (2 = first retry).

    Exponential in the attempt number, capped, with uniform
    ``1 +/- jitter`` multiplicative jitter so synchronized clients
    desynchronize (the classic thundering-herd fix).

    ``backoff_cap_s`` bounds the *final* delay: the jitter draw happens
    first and the product is clamped, so no drawn delay can ever exceed
    the cap (previously the clamp ran before jitter, letting delays
    overshoot the documented cap by up to the jitter fraction).
    """
    exponent = max(0, attempt - 2)
    delay = policy.backoff_base_s * policy.backoff_factor**exponent
    if policy.jitter > 0.0:
        delay *= rng.uniform(1.0 - policy.jitter, 1.0 + policy.jitter)
    return min(policy.backoff_cap_s, delay)


@dataclass(frozen=True)
class ResilienceStats:
    """Frozen per-run resilience counters (all per transaction type).

    ``offered`` counts logical operations (first attempts only), so
    ``goodput <= offered`` holds even under heavy retrying — retries
    are tracked separately and can never inflate throughput.
    """

    offered: Tuple[int, ...]
    retries: Tuple[int, ...]
    timeouts: Tuple[int, ...]
    failed: Tuple[int, ...]
    shed: Tuple[int, ...]
    #: Server-side completions of requests the client had abandoned.
    zombie_completions: int
    #: Retries denied by the retry budget.
    retries_denied: int
    #: Tick indices during which the server was down.
    down_ticks: Tuple[int, ...] = ()
    #: Operations still open when the run ended: held by the server and
    #: not given up by their client, or waiting to be retried.
    open_ops: int = 0

    @property
    def total_offered(self) -> int:
        return sum(self.offered)

    @property
    def total_failed(self) -> int:
        return sum(self.failed)

    @property
    def total_retries(self) -> int:
        return sum(self.retries)

    @property
    def total_timeouts(self) -> int:
        return sum(self.timeouts)

    @property
    def total_shed(self) -> int:
        return sum(self.shed)


class ResilienceTracker:
    """Mutable counters accumulated by the tick loop."""

    def __init__(self, n_types: int):
        self.offered = [0] * n_types
        self.retries = [0] * n_types
        self.timeouts = [0] * n_types
        self.failed = [0] * n_types
        self.shed = [0] * n_types
        self.zombie_completions = 0
        self.retries_denied = 0
        self.down_ticks: List[int] = []
        self.open_ops = 0

    def freeze(self) -> ResilienceStats:
        return ResilienceStats(
            offered=tuple(self.offered),
            retries=tuple(self.retries),
            timeouts=tuple(self.timeouts),
            failed=tuple(self.failed),
            shed=tuple(self.shed),
            zombie_completions=self.zombie_completions,
            retries_denied=self.retries_denied,
            down_ticks=tuple(self.down_ticks),
            open_ops=self.open_ops,
        )
