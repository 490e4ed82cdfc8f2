"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking genuine Python bugs.
The hierarchy mirrors the package layout: simulator faults, communication
library misuse, directive/clause validation failures, and static
translation errors each get their own branch.
"""

from __future__ import annotations

import traceback as _traceback


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Simulator


class SimError(ReproError):
    """Base class for simulation-engine errors."""


class SimAbortError(SimError):
    """Engine-level abort of a whole run (deadlock, hang, rank failure).

    These are raised about the *run*, not about one rank's user code, so
    the engine surfaces them unwrapped instead of inside a
    :class:`SimProcessError`.
    """


class SimDeadlockError(SimAbortError):
    """All live simulated processes are blocked and none can make progress.

    The message includes a per-rank diagnostic of what each blocked rank
    was waiting on, mirroring the output of a parallel debugger.
    """

    def __init__(self, message: str, blocked: dict[int, str] | None = None):
        super().__init__(message)
        #: Mapping of rank -> human-readable block reason.
        self.blocked = dict(blocked or {})


class SimHangError(SimAbortError):
    """The progress watchdog tripped: the run stopped making progress.

    Raised for both *virtual-time stalls* (scheduling keeps happening but
    no rank's clock advances — a polling livelock) and *wall-clock hangs*
    (no scheduling point was reached for longer than the configured
    timeout — e.g. an infinite loop in user code). The message carries a
    per-rank progress report (state, clock, blocked reason, and under
    ``profile=True`` the last span) so the hang is debuggable instead of
    silent.
    """

    def __init__(self, message: str, report: str | None = None):
        super().__init__(message if report is None
                         else f"{message}\n{report}")
        #: The per-rank progress report, also embedded in the message.
        self.report = report or ""


class RankFailedError(SimAbortError):
    """A simulated rank was killed (injected crash) and the run cannot
    complete without it.

    Raised either eagerly — a surviving rank initiated communication
    with a failed peer — or at quiescence, when every surviving rank is
    blocked on communication that a failed rank will never perform. The
    message names the failed rank(s) and what each surviving blocked
    rank was waiting on; the structured fields below carry the same
    facts machine-readably for the recovery runtime
    (:mod:`repro.recovery`) and failure reports.
    """

    def __init__(self, message: str, failed: tuple[int, ...] = (),
                 blocked: dict[int, str] | None = None,
                 failed_rank: int | None = None,
                 failure_time: float | None = None,
                 detected_by: int | None = None):
        super().__init__(message)
        #: Ranks that were crashed (fault injection) before the abort.
        self.failed = tuple(failed)
        #: Mapping of surviving rank -> human-readable block reason.
        self.blocked = dict(blocked or {})
        #: The failure this abort is *about* (first detected). Falls
        #: back to the first crashed rank when a specific one was not
        #: singled out.
        self.failed_rank = (failed_rank if failed_rank is not None
                            else (self.failed[0] if self.failed else None))
        #: Virtual time the failed rank was killed, when known.
        self.failure_time = failure_time
        #: Rank that detected the failure (it initiated communication
        #: naming the dead peer), or ``None`` when the engine detected
        #: it at quiescence.
        self.detected_by = detected_by


class RaceError(SimAbortError):
    """The access sanitizer observed two conflicting, unordered accesses.

    Raised by :class:`repro.sim.sanitizer.AccessSanitizer` (armed with
    ``Engine(..., sanitize=True)``) when a byte range is touched by two
    accesses, at least one a write, with no happens-before edge between
    them — the dynamic counterpart of the static CI04x race findings.
    The message carries both access descriptions and the overlapping
    byte evidence; the structured fields repeat the same facts for the
    differential tests.
    """

    def __init__(self, message: str, *, kind: str = "",
                 ranks: tuple[int, ...] = (),
                 labels: tuple[str, ...] = (),
                 overlap_nbytes: int = 0):
        super().__init__(message)
        #: ``"write-write"`` or ``"read-write"``.
        self.kind = kind
        #: Ranks that performed the two accesses, first-recorded first.
        self.ranks = tuple(ranks)
        #: Human-readable descriptions of the two accesses.
        self.labels = tuple(labels)
        #: Size of the overlapping byte range.
        self.overlap_nbytes = overlap_nbytes


class SimProcessError(SimError):
    """A simulated process raised an exception; wraps the original.

    The original exception is raised on the rank's own host thread; its
    traceback is captured and re-attached here (both as ``__cause__``
    and formatted into the message) so the failing user source line
    survives the thread boundary.
    """

    def __init__(self, rank: int, original: BaseException):
        message = (f"rank {rank} raised "
                   f"{type(original).__name__}: {original}")
        remote = ""
        if original.__traceback__ is not None:
            remote = "".join(_traceback.format_exception(
                type(original), original, original.__traceback__))
            message += (f"\n--- traceback on rank {rank} ---\n"
                        f"{remote.rstrip()}")
        super().__init__(message)
        self.rank = rank
        self.original = original
        #: The original exception's formatted traceback ("" if absent).
        self.remote_traceback = remote


class SimStateError(SimError):
    """An engine primitive was used outside a running simulation."""


# ---------------------------------------------------------------------------
# Network cost models


class NetModelError(ReproError, KeyError):
    """A cost-model lookup failed (e.g. unknown transport kind).

    ``KeyError`` stays a secondary base for compatibility with callers
    that predate the :class:`ReproError` contract, but the message must
    render like a normal exception, not ``KeyError``'s repr-quoting.
    """

    __str__ = Exception.__str__


# ---------------------------------------------------------------------------
# Communication libraries (simulated MPI / SHMEM)


class CommError(ReproError):
    """Base class for communication-library errors."""


class MPIError(CommError):
    """Misuse of the simulated MPI library (bad rank, type mismatch...)."""


class TruncationError(MPIError):
    """A received message is larger than the posted receive buffer."""


class ShmemError(CommError):
    """Misuse of the simulated SHMEM library."""


class SymmetryError(ShmemError):
    """A SHMEM call was given a buffer that is not a symmetric data object."""


# ---------------------------------------------------------------------------
# Datatype engine


class DatatypeError(ReproError):
    """Invalid datatype construction or usage."""


class CompositeTypeError(DatatypeError):
    """A composite type violates the paper's restrictions.

    Section III-A: pointers within a composite type are prohibited, as are
    recursively nested composite types.
    """


# ---------------------------------------------------------------------------
# Directives (the paper's core contribution)


class DirectiveError(ReproError):
    """Base class for directive misuse."""


class ClauseError(DirectiveError):
    """A directive clause violates the rules of Section III-B."""


class LoweringError(DirectiveError):
    """The directive could not be translated to the requested target."""


# ---------------------------------------------------------------------------
# Static front end / code generation


class PragmaSyntaxError(ReproError):
    """The pragma parser rejected the annotated source."""

    def __init__(self, message: str, line: int | None = None):
        loc = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{loc}")
        self.line = line


class CodegenError(ReproError):
    """Code generation failed for an otherwise valid IR."""


# ---------------------------------------------------------------------------
# Static analysis / verification


class AnalysisError(ReproError):
    """Base class for static-analysis failures."""


class VerificationError(AnalysisError):
    """The static verifier refuted the program.

    Raised by :meth:`repro.core.analysis.lint.LintReport.require_clean`
    when a lint/verify pass produced error-severity diagnostics; the
    message lists them.
    """
