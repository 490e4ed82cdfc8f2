"""Compiler analyses over the directive IR (and runtime helpers).

These implement the "automatic analysis and optimization" story of the
paper: buffer-independence of adjacent directives, synchronization
consolidation/placement, count and datatype inference, SPMD dataflow
(send/receive sets per rank), and overlap legality.
"""

from repro.core.analysis.independence import buffer_names
from repro.core.analysis.infer import (
    infer_count_static,
    infer_element_type,
)
from repro.core.analysis.syncopt import SyncPlan, plan_synchronization
from repro.core.analysis.dataflow import (
    CommGraph,
    MatchingIssue,
    classify_pattern,
    comm_graph,
    validate_matching,
)
from repro.core.analysis.overlap import overlap_legal
from repro.core.analysis.codes import (
    ADVISOR_CODES,
    DEADLOCK_CODES,
    RULES,
    STALE_READ_CODES,
    Diagnostic,
    Rule,
    severity_of,
)
from repro.core.analysis.advisor import (
    Finding,
    Rewrite,
    advise_program,
    apply_rewrite,
)
from repro.core.analysis.fix import FixResult, FixStep, fix_source
from repro.core.analysis.progsim import (
    ProgramSimError,
    SimOutcome,
    simulate_program,
)
from repro.core.analysis.lint import (
    LintReport,
    lint_program,
    render_json,
    render_sarif,
)
from repro.core.analysis.verify import (
    WEAKENINGS,
    VerifyReport,
    verify_program,
)

__all__ = [
    "ADVISOR_CODES",
    "DEADLOCK_CODES",
    "RULES",
    "STALE_READ_CODES",
    "Diagnostic",
    "Rule",
    "severity_of",
    "Finding",
    "Rewrite",
    "advise_program",
    "apply_rewrite",
    "FixResult",
    "FixStep",
    "fix_source",
    "ProgramSimError",
    "SimOutcome",
    "simulate_program",
    "LintReport",
    "lint_program",
    "render_json",
    "render_sarif",
    "WEAKENINGS",
    "VerifyReport",
    "verify_program",
    "buffer_names",
    "infer_count_static",
    "infer_element_type",
    "SyncPlan",
    "plan_synchronization",
    "CommGraph",
    "MatchingIssue",
    "classify_pattern",
    "comm_graph",
    "validate_matching",
    "overlap_legal",
]
