"""Request coalescing and the per-worker warm-evaluator pool.

Two forms of sharing keep a mapper service cheap under repeated load:

1. **Request coalescing** — two requests with the same canonical
   ``(architecture, workload, search-config)`` signature are the *same
   search* (searches are seeded and deterministic), so the second attaches
   to the first's job instead of burning a worker slot. The signature is a
   SHA-256 over the sorted-JSON serde dicts, so a preset-name request and
   the equivalent full-dict request coalesce.

2. **Warm evaluators** — each service worker process keeps an
   :class:`EvaluatorPool`: one
   :class:`~repro.model.evaluator.Evaluator` per ``(architecture,
   workload)`` pair, with its own
   :class:`~repro.model.eval_cache.EvaluationCache`, evicted
   least-recently-used. The cache pays off across requests: a repeated
   row-wise (``use_batch=False``) search reads its evaluations back (a
   500-evaluation toy16 GEMM runs in about 50 ms warm against 200 ms
   cold on a 2-core Xeon host), while inside one search it answers 0-19
   of 500 lookups. Kernel-priced searches never look it up.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Any, Dict, List, Tuple

from repro.arch.spec import Architecture
from repro.exceptions import ServiceError
from repro.io.serde import architecture_to_dict, workload_to_dict
from repro.model.eval_cache import EvaluationCache
from repro.model.evaluator import Evaluator
from repro.problem.workload import Workload

#: Default bound on distinct (arch, workload) evaluator entries kept warm.
DEFAULT_POOL_SIZE = 8

#: Per-entry evaluation-cache bound. Smaller than the library default:
#: the service keeps several caches alive at once.
DEFAULT_CACHE_ENTRIES = 20_000


def canonical_signature(payload: Dict[str, Any]) -> str:
    """Deterministic hash of a JSON-serializable request payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def pair_signature(arch: Architecture, workload: Workload) -> str:
    """Signature of an (architecture, workload) pair — the pool key."""
    return canonical_signature(
        {
            "arch": architecture_to_dict(arch),
            "workload": workload_to_dict(workload),
        }
    )


class EvaluatorPool:
    """Bounded least-recently-used pool of cached evaluators.

    One :class:`~repro.model.evaluator.Evaluator` with its own
    :class:`~repro.model.eval_cache.EvaluationCache` per (arch, workload)
    pair. ``acquire`` returns a pair's evaluator, building it on a miss;
    admitting a pair past ``max_entries`` evicts the least recently
    acquired one. The cache counters of :meth:`stats` count over the
    pool's life: an evicted entry's hits and misses stay in them.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_POOL_SIZE,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
    ) -> None:
        if max_entries < 1:
            raise ServiceError(
                f"evaluator pool needs max_entries >= 1, got {max_entries}"
            )
        if cache_entries < 1:
            raise ServiceError(
                f"evaluator pool needs cache_entries >= 1, got {cache_entries}"
            )
        self.max_entries = max_entries
        self.cache_entries = cache_entries
        self._entries: "OrderedDict[str, Evaluator]" = OrderedDict()
        self.admissions = 0
        self.reuses = 0
        self.evictions = 0
        # Cache hits and misses of the evicted entries.
        self._evicted_hits = 0
        self._evicted_misses = 0

    def signatures(self) -> List[str]:
        """The pair signatures of the entries kept warm."""
        return list(self._entries)

    def acquire(
        self, arch: Architecture, workload: Workload
    ) -> Tuple[Evaluator, bool]:
        """The cached evaluator of this pair and whether it was reused."""
        signature = pair_signature(arch, workload)
        evaluator = self._entries.get(signature)
        if evaluator is not None:
            self._entries.move_to_end(signature)
            self.reuses += 1
            return evaluator, True
        evaluator = self._entries[signature] = Evaluator(
            arch, workload, cache=EvaluationCache(self.cache_entries)
        )
        self.admissions += 1
        if len(self._entries) > self.max_entries:
            _, evicted = self._entries.popitem(last=False)
            self.evictions += 1
            self._evicted_hits += evicted.cache.hits
            self._evicted_misses += evicted.cache.misses
        return evaluator, False

    def stats(self) -> Dict[str, Any]:
        caches = [evaluator.cache for evaluator in self._entries.values()]
        return {
            "size": len(caches),
            "max_entries": self.max_entries,
            "admissions": self.admissions,
            "reuses": self.reuses,
            "evictions": self.evictions,
            "cache": {
                "hits": self._evicted_hits
                + sum(cache.hits for cache in caches),
                "misses": self._evicted_misses
                + sum(cache.misses for cache in caches),
            },
        }
