"""Headway-pattern combinations, perceived headways, and frequency shares.

Riders who can board any of several patterns experience the harmonic
combination of the pattern headways and split across patterns in proportion
to pattern frequency (inverse headway). Both quantities are pre-computed for
every combination of menu choices so the optimizer stays linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

__all__ = [
    "Combination",
    "CombinationSet",
    "enumerate_combinations",
    "perceived_headway",
    "frequency_shares",
]


class CombinationError(ValueError):
    """Raised for empty menus or all-out-of-service index vectors."""


def _frequencies(headway_indices: Sequence[int], menu: Sequence[float]) -> tuple[list, float]:
    """Each pattern's frequency (inverse headway), 0.0 where index 0 marks it
    out of service, and their total added left to right, not by ``sum``, which
    compensates from Python 3.12; refuses an index outside the menu and a
    vector with no pattern in service."""
    freqs: list[float] = []
    total = 0.0
    for h in headway_indices:
        if h == 0:
            freqs.append(0.0)
            continue
        if not 1 <= h <= len(menu):
            raise CombinationError(f"headway index {h} outside menu of size {len(menu)}")
        freqs.append(1.0 / menu[h - 1])
        total += freqs[-1]
    if not any(headway_indices):
        raise CombinationError("combination must have at least one in-service pattern")
    return freqs, total


def perceived_headway(headway_indices: Sequence[int], menu: Sequence[float]) -> float:
    """Harmonic combination of the active headways (minutes).

    Index 0 marks an out-of-service pattern; at least one index must be
    nonzero. Equals the single active headway when only one pattern runs.
    """
    _, total = _frequencies(headway_indices, menu)
    only, *more = (h for h in headway_indices if h)
    if not more:
        return menu[only - 1]
    return 1.0 / total


def frequency_shares(headway_indices: Sequence[int], menu: Sequence[float]) -> tuple[float, ...]:
    """Rider share per pattern under the first-vehicle boarding rule.

    Active patterns receive flow proportional to their frequency (inverse
    headway); out-of-service patterns receive 0. Shares sum to 1.
    """
    freqs, total = _frequencies(headway_indices, menu)
    return tuple(v / total for v in freqs)


@dataclass(frozen=True)
class Combination:
    """One menu-index vector across patterns with its cached rider view."""

    headway_indices: tuple[int, ...]
    perceived_headway: float
    active_patterns: tuple[int, ...]
    shares: tuple[float, ...]


class CombinationSet:
    """All combinations for one (route, period) pair, in lexicographic order."""

    def __init__(self, menu: Sequence[float], combos: Sequence[Combination]):
        self.menu = tuple(menu)
        self.combos = tuple(combos)
        self._consistent: dict[tuple[int, ...], tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.combos)

    def __iter__(self) -> Iterator[Combination]:
        return iter(self.combos)

    def __getitem__(self, k: int) -> Combination:
        return self.combos[k]

    def consistent_with(self, assigned_indices: Sequence[int]) -> tuple[int, ...]:
        """Combinations whose active patterns all match the assigned menu
        indices (index 0 = pattern out of service). Each assignment is
        scanned once per set; later calls return the stored tuple."""
        assigned = tuple(assigned_indices)
        found = self._consistent.get(assigned)
        if found is None:
            found = self._consistent[assigned] = tuple(
                k for k, c in enumerate(self.combos)
                if all(assigned[p] == c.headway_indices[p] for p in c.active_patterns))
        return found


@lru_cache(maxsize=None)
def _enumerate_cached(n_patterns: int, menu: tuple[float, ...]) -> CombinationSet:
    combos = []
    for vec in product(range(len(menu) + 1), repeat=n_patterns):
        if all(h == 0 for h in vec):
            continue
        combos.append(
            Combination(
                headway_indices=vec,
                perceived_headway=perceived_headway(vec, menu),
                active_patterns=tuple(p for p, h in enumerate(vec) if h != 0),
                shares=frequency_shares(vec, menu),
            )
        )
    return CombinationSet(menu, combos)


def enumerate_combinations(n_patterns: int, menu: Sequence[float]) -> CombinationSet:
    """All (|menu|+1)^n_patterns - 1 index vectors except all-out-of-service,
    in lexicographic order, each with its perceived headway pre-computed."""
    if n_patterns < 1:
        raise CombinationError(f"need at least one pattern, got {n_patterns}")
    if not menu:
        raise CombinationError("headway menu must not be empty")
    return _enumerate_cached(n_patterns, tuple(menu))
