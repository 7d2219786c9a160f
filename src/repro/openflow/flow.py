"""Flow entries and their counters.

A :class:`FlowEntry` is the unit a switch's flow table stores: a match, a
priority, an action list, idle/hard timeouts, and live counters.  The
counters are the raw material for Athena's protocol-centric features
(packet count, byte count, duration), so their update rules mirror the
OpenFlow spec: every matched packet bumps ``packet_count``/``byte_count``
and refreshes the idle-timeout deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.openflow.actions import Action
from repro.openflow.match import Match


@dataclass
class FlowStats:
    """Mutable counters attached to a flow entry."""

    packet_count: int = 0
    byte_count: int = 0
    install_time: float = 0.0
    last_packet_time: float = 0.0

    def record(self, bytes_: int, now: float, packets: int = 1) -> None:
        """Account ``packets`` totalling ``bytes_`` bytes seen at ``now``."""
        self.packet_count += packets
        self.byte_count += bytes_
        self.last_packet_time = now

    def duration(self, now: float) -> float:
        """Seconds the entry has been installed."""
        return max(0.0, now - self.install_time)


@dataclass
class FlowEntry:
    """One row of a flow table."""

    match: Match
    priority: int = 0
    actions: List[Action] = field(default_factory=list)
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: int = 0
    app_id: Optional[str] = None
    table_id: int = 0
    stats: FlowStats = field(default_factory=FlowStats)

    def sort_key(self) -> Tuple[int, int]:
        """Flow tables try higher priority first, then more specific matches."""
        return (-self.priority, -self.match.specificity())

    def is_idle_expired(self, now: float) -> bool:
        """True if the idle (soft) timeout has elapsed since the last packet."""
        if self.idle_timeout <= 0:
            return False
        reference = max(self.stats.last_packet_time, self.stats.install_time)
        # Compared as a deadline sum (not ``now - reference``) so the
        # verdict is exactly the flow table's expiry-heap arithmetic;
        # the two forms differ by one rounding step at some instants.
        return now >= reference + self.idle_timeout

    def is_hard_expired(self, now: float) -> bool:
        """True if the hard timeout has elapsed since installation."""
        if self.hard_timeout <= 0:
            return False
        return now >= self.stats.install_time + self.hard_timeout

    def __str__(self) -> str:
        return (
            f"FlowEntry(prio={self.priority}, {self.match}, "
            f"pkts={self.stats.packet_count}, app={self.app_id})"
        )
