"""Persistent experiment store: resumable, shardable, provenance-tracked.

The matrix runner's content-keyed cell cache, made durable. Cells are
persisted in a sqlite database under the same digest that keys the
in-process cache, together with a run-manifest table recording *how*
each batch of cells was produced (profile, backend, search scale,
package and schema versions, wall time). ``run_matrix`` consults the
store before computing, writes back atomically from the parent process,
and therefore resumes killed runs and shares work across shards and
machines — see ``docs/experiments.md``.

The store also carries the claim-based distributed work queue
(:mod:`repro.store.queue`): matrices can be *enqueued* instead of run,
and any number of ``repro-worker`` processes sharing the store file pull
open cells, compute them, and commit results into the same cache.
"""

from repro.store.queue import ClaimedCell, QueueJob, WorkQueue
from repro.store.schema import SCHEMA_VERSION
from repro.store.serde import cell_from_payload, cell_to_payload
from repro.store.store import ExperimentStore

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentStore",
    "cell_from_payload",
    "cell_to_payload",
    "WorkQueue",
    "QueueJob",
    "ClaimedCell",
]
