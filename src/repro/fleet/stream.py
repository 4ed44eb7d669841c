"""The fleet's merged, timestamped event stream.

The fleet runtime consumes one ordered stream of :class:`FleetEvent` s
— attack launches and operator/control actions — merged across tenants.
:func:`merge_streams` does the merging with a deterministic total order
(minute, then shard key, then arrival rank), so the same spec always
yields the same stream; :func:`scripted_stream` builds the canonical
stream for a :class:`~repro.fleet.spec.FleetSpec`:
every attack's launch at its stagger offset, interleaved with any
scripted control events (crash/drain/evict/checkpoint).

Between events the runtime advances shards; an event's ``minute`` is a
barrier on the *simulated* clock of the shard it targets (fleet time is
per-shard simulated time, never wall time), which keeps control actions
— "crash tenant-01's second attack at minute 240" — byte-deterministic.
The runtime rejects a hand-built stream that is not sorted by minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..errors import FleetError
from .spec import AttackSpec, FleetSpec, ShardKey

#: Control actions a :class:`FleetEvent` can carry.
LAUNCH = "launch"
CRASH = "crash"
DRAIN = "drain"
EVICT = "evict"
CHECKPOINT = "checkpoint"

ACTIONS = (LAUNCH, CRASH, DRAIN, EVICT, CHECKPOINT)


@dataclass(frozen=True)
class FleetEvent:
    """One timestamped instruction on the merged fleet stream.

    Attributes:
        minute: simulated-minutes barrier — the targeted shard reaches at
            least this clock value before the event applies (launches
            apply relative to overall fleet progress instead, since the
            shard does not exist yet).
        action: one of :data:`ACTIONS`.
        tenant / prefix: the targeted shard key.
        attack: the full attack description (``launch`` events only).
    """

    minute: float
    action: str
    tenant: str = ""
    prefix: str = ""
    attack: Optional[AttackSpec] = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise FleetError(
                f"unknown fleet action {self.action!r}; expected one of "
                f"{ACTIONS}"
            )
        if self.minute < 0:
            raise FleetError("fleet events cannot predate minute zero")
        if self.action == LAUNCH:
            if self.attack is None:
                raise FleetError("launch events must carry an attack spec")
        elif not self.tenant or not self.prefix:
            raise FleetError(
                f"{self.action} events must name a (tenant, prefix) shard"
            )

    @property
    def key(self) -> ShardKey:
        """The targeted shard key."""
        if self.attack is not None:
            return self.attack.key
        return (self.tenant, self.prefix)


def launch_event(attack: AttackSpec) -> FleetEvent:
    """The launch event for one attack (at its stagger offset)."""
    return FleetEvent(
        minute=attack.launch_minute,
        action=LAUNCH,
        tenant=attack.tenant,
        prefix=attack.prefix,
        attack=attack,
    )


def merge_streams(
    *streams: Iterable[FleetEvent],
) -> List[FleetEvent]:
    """Merge per-tenant (or per-source) event streams into one.

    Total order: ``(minute, tenant, prefix, stream rank, arrival rank)``
    — stable and deterministic regardless of how the input streams were
    produced, so two runs of the same spec ingest identical sequences.
    """
    decorated = []
    for stream_rank, stream in enumerate(streams):
        for arrival_rank, event in enumerate(stream):
            decorated.append(
                (
                    (
                        event.minute,
                        event.key[0],
                        event.key[1],
                        stream_rank,
                        arrival_rank,
                    ),
                    event,
                )
            )
    return [event for _, event in sorted(decorated, key=lambda pair: pair[0])]


def scripted_stream(
    spec: FleetSpec, controls: Sequence[FleetEvent] = ()
) -> List[FleetEvent]:
    """The canonical merged stream for a spec: launches + control events."""
    return merge_streams([launch_event(a) for a in spec.attacks()], controls)
