"""Replay buffer for stage 1 (Algorithm 2, line 7).

Stores FPE-positive features found during quick initialization so stage
2 can seed formal training from "potentially good actions" instead of
exploring from scratch. Each entry keeps the feature's values, so stage
2 composes from them without re-evaluating the spec. De-duplicates on
the spec's canonical name and keeps the highest-probability entries when
full.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .transform import FeatureSpec

__all__ = ["ReplayEntry", "ReplayBuffer"]


@dataclass(frozen=True)
class ReplayEntry:
    spec: FeatureSpec
    values: np.ndarray  # the spec's column on the run's matrix
    agent: int  # which feature subgroup produced it
    p: float  # FPE positive-class probability at insertion time


@dataclass
class ReplayBuffer:
    capacity: int = 256
    _entries: dict[str, ReplayEntry] = field(default_factory=dict)

    def add(self, spec: FeatureSpec, values: np.ndarray, agent: int, p: float) -> bool:
        """Insert, keeping one entry per spec name; returns True if stored."""
        key = spec.name
        existing = self._entries.get(key)
        if existing is not None:
            if p > existing.p:
                self._entries[key] = ReplayEntry(spec, values, agent, p)
            return False
        if len(self._entries) >= self.capacity:
            worst = min(self._entries, key=lambda k: self._entries[k].p)
            if self._entries[worst].p >= p:
                return False
            del self._entries[worst]
        self._entries[key] = ReplayEntry(spec, values, agent, p)
        return True

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, spec: FeatureSpec) -> bool:
        return spec.name in self._entries

    def entries(self) -> list[ReplayEntry]:
        """Entries ordered by descending FPE probability."""
        return sorted(self._entries.values(), key=lambda e: -e.p)
