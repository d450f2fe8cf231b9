"""The batch size, shared by the mapspace, the batch kernel and every
search that packs candidates into batches.

A leaf module, so the mapspace can read it without importing the batch
kernel (``repro.model.batch`` re-exports it). Searchers read it as
``batching.DEFAULT_BATCH_SIZE`` when they run, so this attribute is the
one place that sets how candidates are chunked; the chunking never
changes a search's answer, its counts or its curve.
"""

#: Number of candidates packed per batch. Large enough to amortize kernel
#: launch overhead, small enough that a pruned batch wastes little.
DEFAULT_BATCH_SIZE = 512
