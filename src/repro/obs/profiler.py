"""Run profiling: wall time, event throughput, per-cell timing.

* :class:`CellProfile` — what one cell run cost: wall time, events
  dispatched, simulated time and (when asked for) events by label.  The
  single cell-run body in :mod:`repro.experiments.runner` fills it in for
  every run, so the numbers are free to read.
* :class:`ProfileReport` — per-cell profiles collected by
  :func:`repro.experiments.parallel.execute_cells`.  Workers ship their
  cells' profiles back with the metrics; the parent merges them in
  deterministic (label-sorted) order.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List


@dataclasses.dataclass
class CellProfile:
    """Timing of one experiment cell (one scheme x trace simulation)."""

    label: str
    wall_s: float = 0.0
    events: int = 0
    sim_time_s: float = 0.0
    #: "computed" (fresh simulation) or "cached" (served from a cache
    #: layer; wall/events are zero because nothing ran).
    source: str = "computed"
    #: Dispatched events by label (``rolo-e:poll``, ``M3:io``, ...), from
    #: the engine's label census; empty unless asked for.
    label_counts: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "wall_s": self.wall_s,
            "events": self.events,
            "sim_time_s": self.sim_time_s,
            "source": self.source,
            "label_counts": dict(self.label_counts),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellProfile":
        return cls(
            label=str(data["label"]),
            wall_s=float(data["wall_s"]),
            events=int(data["events"]),
            sim_time_s=float(data["sim_time_s"]),
            source=str(data.get("source", "computed")),
            label_counts={
                str(k): int(v)
                for k, v in data.get("label_counts", {}).items()
            },
        )

    def report(self) -> str:
        lines = [
            f"wall={self.wall_s:.3f}s  events={self.events}  "
            f"rate={self.events_per_s:,.0f} ev/s  "
            f"sim_time={self.sim_time_s:.2f}s"
        ]
        if self.label_counts:
            lines.append("events by label:")
            ordered = sorted(
                self.label_counts.items(), key=lambda kv: (-kv[1], kv[0])
            )
            for label, count in ordered:
                lines.append(f"  {label:24s} {count}")
        return "\n".join(lines)


@dataclasses.dataclass
class ProfileReport:
    """Merged per-cell profiles for one experiment invocation."""

    cells: List[CellProfile] = dataclasses.field(default_factory=list)

    def add(self, cell: CellProfile) -> None:
        self.cells.append(cell)

    def finalize(self) -> None:
        """Deterministic ordering regardless of pool completion order."""
        self.cells.sort(key=lambda c: (c.source, c.label))

    @property
    def computed(self) -> List[CellProfile]:
        return [c for c in self.cells if c.source == "computed"]

    def render(self) -> str:
        self.finalize()
        computed = self.computed
        lines = ["[profile] per-cell timing:"]
        if not self.cells:
            lines.append("  (no cells)")
            return "\n".join(lines)
        width = max(len(c.label) for c in self.cells)
        for cell in self.cells:
            if cell.source == "computed":
                lines.append(
                    f"  {cell.label:{width}s}  wall={cell.wall_s:8.3f}s  "
                    f"events={cell.events:>9d}  "
                    f"rate={cell.events_per_s:>12,.0f} ev/s"
                )
            else:
                lines.append(f"  {cell.label:{width}s}  cached")
        if computed:
            wall = sum(c.wall_s for c in computed)
            events = sum(c.events for c in computed)
            rate = events / wall if wall > 0 else 0.0
            lines.append(
                f"  total: {len(computed)} computed / "
                f"{len(self.cells) - len(computed)} cached  "
                f"cell_wall={wall:.3f}s  events={events}  "
                f"rate={rate:,.0f} ev/s"
            )
        else:
            lines.append(
                f"  total: 0 computed / {len(self.cells)} cached"
            )
        return "\n".join(lines)
