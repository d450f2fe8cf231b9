"""Bounded LRU cache for mapping evaluations (the search fast path).

The full validity -> access-counts -> energy pipeline costs a fraction
of a millisecond per call. Keying a bounded LRU on
:meth:`~repro.mapping.nest.Mapping.signature` turns a repeated mapping
into a dictionary lookup without changing any search result: two
mappings with equal signatures are guaranteed to evaluate identically.
Within one search repeats are rare (a 500-evaluation row-wise random
search of a toy16 GEMM hits 0-19 times); the payoff is a repeated
row-wise request on the mapper service, whose pooled evaluator keeps its
cache across requests and reads every evaluation back.

The cache is deliberately dumb — no TTLs, no weak references, no
threading locks. Each search worker owns a private cache (process pools
give no shared memory to exploit), and hit/miss/eviction counters make
the fast path observable through ``SearchResult.stats``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Hashable, Optional

from repro.exceptions import SearchError
from repro.obs import scope as _obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (evaluator imports us)
    from repro.model.evaluator import Evaluation

#: Default cache bound: ~100k evaluations. An Evaluation is a few hundred
#: bytes plus its access-count payload, so this stays in the tens of MB
#: while covering every duplicate a paper-scale (10k-budget) search draws.
DEFAULT_CACHE_SIZE = 100_000


class EvaluationCache:
    """LRU cache from mapping signature to :class:`Evaluation`.

    Args:
        max_entries: capacity bound; the least-recently-used entry is
            evicted once the bound is exceeded.

    Attributes:
        hits: lookups answered from the cache.
        misses: lookups that fell through to the cost model.
        evictions: entries dropped to respect ``max_entries``.
    """

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_entries")

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE) -> None:
        if max_entries < 1:
            raise SearchError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, Evaluation]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional["Evaluation"]:
        """Return the cached evaluation for ``key`` or None, counting the lookup."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            _obs.inc("evaluator.cache_misses")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        _obs.inc("evaluator.cache_hits")
        return entry

    def put(self, key: Hashable, evaluation: "Evaluation") -> None:
        """Insert ``evaluation`` under ``key``, evicting the LRU entry if full."""
        self._entries[key] = evaluation
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for ``SearchResult.stats`` and logging."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "size": len(self._entries),
            "max_entries": self.max_entries,
        }
