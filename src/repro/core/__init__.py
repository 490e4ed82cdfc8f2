"""The paper's contribution: communication-intent directives.

Two directives — ``comm_parameters`` and ``comm_p2p`` — express
point-to-point communication at the level of *intent*: who sends, who
receives, which buffers, under what condition, with translation to MPI
two-sided, MPI one-sided or SHMEM chosen by a clause (or defaulted).

Two front ends produce the same directive semantics:

* the **runtime DSL** (:mod:`repro.core.directives`): Python context
  managers used inside SPMD programs running on :mod:`repro.sim` — the
  directives post communication on entry, run their body overlapped
  with the transfers, and consolidate synchronization per the
  ``place_sync`` policy;
* the **static translator** (:mod:`repro.core.pragma` +
  :mod:`repro.core.codegen`): parses C-like source annotated with
  ``#pragma comm_parameters`` / ``#pragma comm_p2p`` into IR and emits
  translated C (MPI or SHMEM) — the paper's Open64 workflow.

The shared middle: clause validation (:mod:`repro.core.clauses`),
inference and analyses (:mod:`repro.core.analysis`), and lowering to
executable communication plans (:mod:`repro.core.lower`).
"""

from repro.core.clauses import SyncPlacement, Target
from repro.core.directives import (
    CommP2P,
    CommParameters,
    comm_flush,
    comm_p2p,
    comm_parameters,
)
from repro.core.collectives_ext import CollectivePattern, comm_collective

__all__ = [
    "SyncPlacement",
    "Target",
    "CommP2P",
    "CommParameters",
    "comm_flush",
    "comm_p2p",
    "comm_parameters",
    "CollectivePattern",
    "comm_collective",
]
