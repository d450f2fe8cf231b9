"""The default batch size, shared by the mapspace, the batch kernel and
every search that packs candidates into batches.

A leaf module, so the mapspace can read it without importing the batch
kernel (``repro.model.batch`` re-exports it).
"""

#: Default number of candidates packed per batch. Large enough to amortize
#: kernel launch overhead, small enough that a pruned batch wastes little.
DEFAULT_BATCH_SIZE = 512
