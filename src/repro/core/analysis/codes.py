"""Stable diagnostic codes and the :class:`Diagnostic` record.

Every finding of the static analyses carries a ``CI``-prefixed code so
tool output is machine-checkable and diff-stable: CLI text, JSON and
SARIF renderers, CI gates, and the docs table in ``docs/LINT.md`` all
key on these. Codes are append-only — a released code never changes
meaning.

Code ranges:

* ``CI000``         — pragma syntax errors (the parser rejected the file);
* ``CI001``–``CI009`` — deadlock and matching proofs (happens-before);
* ``CI010``–``CI019`` — stale-read proofs (data guaranteed by sync);
* ``CI020``–``CI029`` — synchronization-consolidation safety;
* ``CI030``–``CI039`` — clause/declaration/inference validation;
* ``CI040``–``CI049`` — byte-interval aliasing and race proofs
  (conflicting overlapping accesses unordered in the happens-before
  graph), emitted by :mod:`repro.core.analysis.races` with byte-range
  evidence;
* ``CI100``–``CI119`` — performance advisories (missed consolidation,
  forfeited overlap, oversized transfers, lowering-target mismatch),
  emitted by :mod:`repro.core.analysis.advisor` with a net-model
  estimated saving in modeled seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Severity spellings, strongest first (ordering key for reports).
SEVERITIES: tuple[str, ...] = ("error", "warning", "info")


@dataclass(frozen=True)
class Rule:
    """One diagnostic rule: a stable code with its default severity."""

    code: str
    name: str
    severity: str
    summary: str
    #: Generic remediation text (diagnostics may carry a sharper one).
    fixit: str = ""


RULES: dict[str, Rule] = {r.code: r for r in (
    Rule("CI000", "pragma-syntax-error", "error",
         "the pragma parser rejected the annotated source"),
    Rule("CI001", "deadlock-cycle", "error",
         "cross-rank wait-for cycle: every rank in the cycle waits on "
         "communication another member performs only after its own wait",
         "move the synchronization point after the matching posts "
         "(e.g. a later place_sync) or break the wait order"),
    Rule("CI002", "deadlock-missing-message", "error",
         "a synchronization waits for a message that is never sent",
         "make the sender's sendwhen cover the expected source, or "
         "guard the receive with a matching receivewhen"),
    Rule("CI003", "deadlock-no-exposure", "error",
         "a one-sided put has no reachable exposure epoch on the target",
         "make the target's receivewhen true for this transfer so the "
         "generated exposure epoch exists"),
    Rule("CI004", "invalid-rank", "error",
         "a sender/receiver expression evaluates outside 0..nprocs-1 "
         "or to no integer rank (a float or a bool), or fails "
         "arithmetically on some rank",
         "clamp or guard the rank expression with sendwhen/receivewhen"),
    Rule("CI005", "unreceived-send", "warning",
         "a send targets a rank whose receivewhen is false"),
    Rule("CI006", "mismatched-sender", "warning",
         "a receiver's sender clause names a different rank than the "
         "one that actually sends to it"),
    Rule("CI007", "mismatched-lowering", "error",
         "positionally matched send and receive halves lower to "
         "different targets; no backend delivers across lowerings, so "
         "the receiver's synchronization can never complete",
         "give both directives the same target clause (or drop both "
         "target clauses so the default lowering applies)"),
    Rule("CI010", "stale-read-overlap", "error",
         "the overlap body references a buffer that is still in flight",
         "move the access after the synchronization point, or drop the "
         "buffer from the directive"),
    Rule("CI011", "stale-read-unsynchronized", "error",
         "a receive buffer is never guaranteed by any synchronization",
         "add a synchronization covering the directive (place_sync / "
         "comm_flush) before the data is consumed"),
    Rule("CI012", "stale-read-before-sync", "error",
         "a receive buffer is read before the synchronization that "
         "guarantees it",
         "move the read after the guaranteeing synchronization, or "
         "synchronize earlier (place_sync(END_PARAM_REGION))"),
    Rule("CI020", "unsafe-consolidation", "warning",
         "consolidated directives share a buffer across regions; the "
         "sync plan is downgraded with an extra split to stay correct"),
    Rule("CI021", "consolidation-split", "warning",
         "dependent buffers inside one region force synchronization "
         "splits; consolidation is partial"),
    Rule("CI030", "missing-clause", "error",
         "a comm_p2p instance is missing required clauses"),
    Rule("CI031", "inference-failure", "error",
         "count/datatype inference failed (missing declaration, "
         "pointer-only buffers, or mixed element types)"),
    Rule("CI032", "not-evaluable", "info",
         "clause expressions reference names with no static value; the "
         "pattern cannot be unrolled for this world"),
    Rule("CI033", "max-comm-iter-overflow", "error",
         "a comm_parameters region declares max_comm_iter(k) but holds "
         "more than k comm_p2p instances; the generated synchronization "
         "bookkeeping overflows (the runtime raises ClauseError)",
         "raise max_comm_iter to the number of comm_p2p instances the "
         "region holds, or split the region"),
    Rule("CI040", "race-write-write", "error",
         "two unordered writes touch overlapping bytes of one buffer "
         "inside an open communication window; the final contents are "
         "schedule-dependent",
         "order the writes: synchronize the in-flight communication "
         "before the conflicting write, or move the write after the "
         "guaranteeing synchronization"),
    Rule("CI041", "race-read-write", "error",
         "a buffer is written while posted communication still reads "
         "overlapping bytes of it; the transferred data is "
         "schedule-dependent",
         "keep the send buffer unmodified until the synchronization "
         "that completes the transfer, or double-buffer the write"),
    Rule("CI042", "send-recv-aliasing", "error",
         "one directive sends and receives overlapping bytes of the "
         "same local buffer on the same rank; the outgoing data races "
         "with the incoming delivery",
         "use distinct (or non-overlapping) sbuf and rbuf windows on "
         "ranks that play both roles"),
    Rule("CI043", "symmetric-heap-collision", "error",
         "puts from different origin ranks land in overlapping bytes "
         "of one symmetric-heap allocation with no ordering between "
         "the origins; SHMEM delivery order is undefined",
         "give each origin a disjoint byte window of the symmetric "
         "buffer, or order the origins with an intervening "
         "synchronization"),
    Rule("CI100", "missed-consolidation", "warning",
         "adjacent independent communication synchronizes separately; "
         "one consolidated call would cover every transfer "
         "(Section III-A)",
         "merge the adjacent directives into one comm_parameters "
         "region (or place_sync(END_ADJ_PARAM_REGIONS) across the "
         "chain) so synchronization consolidates"),
    Rule("CI101", "forfeited-overlap", "warning",
         "the overlap body is empty while independent work follows the "
         "synchronization point; the overlap window is forfeited",
         "move the following independent statements into the "
         "directive's overlap body so they hide the transfer"),
    Rule("CI102", "eager-sync", "warning",
         "the synchronization completes earlier than the first use of "
         "the received data; independent work between them could still "
         "overlap the transfer",
         "move the independent statements between the synchronization "
         "and the first use into the overlap body"),
    Rule("CI103", "oversized-count", "warning",
         "the explicit count exceeds the smallest declared buffer "
         "length; the transfer moves more bytes than the buffers hold",
         "tighten count to the inferred minimum array length"),
    Rule("CI110", "target-mismatch", "warning",
         "the explicit lowering target is modeled slower than an "
         "alternative for this message set (e.g. the one-sided plan "
         "serializes what two-sided overlaps, or small messages miss "
         "the SHMEM fast path)",
         "retarget the directive to the modeled-fastest lowering"),
)}

#: Codes whose findings prove a hang: the program cannot terminate.
DEADLOCK_CODES: frozenset[str] = frozenset({"CI001", "CI002", "CI003",
                                            "CI007"})

#: Codes whose findings prove a stale read: data consumed unguaranteed.
STALE_READ_CODES: frozenset[str] = frozenset({"CI010", "CI011", "CI012"})

#: Byte-interval race codes (the CI04x family): conflicting overlapping
#: accesses left unordered by the synchronization plan, with byte-range
#: evidence (see :mod:`repro.core.analysis.races`).
RACE_CODES: frozenset[str] = frozenset(
    {"CI040", "CI041", "CI042", "CI043"})

#: Performance-advisory codes (the CI1xx family): each finding carries
#: a net-model estimated saving and, via the advisor, a concrete
#: pragma rewrite that ``repro-lint --fix`` can prove and apply.
ADVISOR_CODES: frozenset[str] = frozenset(
    {"CI100", "CI101", "CI102", "CI103", "CI110"})


def severity_of(code: str) -> str:
    """The default severity of a rule code."""
    rule = RULES.get(code)
    return rule.severity if rule is not None else "warning"


#: Anchor base for per-rule documentation links (SARIF ``helpUri``).
HELP_URI_BASE = ("https://github.com/ipdpsw13-comm-intent/blob/main/"
                 "docs/LINT.md")


def help_uri(code: str) -> str:
    """Stable documentation URI for a rule code (SARIF ``helpUri``)."""
    return f"{HELP_URI_BASE}#{code.lower()}"


@dataclass(frozen=True)
class Diagnostic:
    """One finding about one directive (or the whole program).

    ``code`` is the stable rule id (``CI001``...); ``directive`` is the
    source line of the directive the finding is about (which may differ
    from ``line``, the location the finding points at); ``target`` names
    the lowering target the finding applies to (``"*"`` when it holds
    for every target); ``fixit`` is optional remediation text.
    ``saving_s`` is the advisor's net-model estimated saving in modeled
    seconds for the analyzed ``(nprocs, target, netmodel)`` triple
    (CI1xx findings only).
    """

    severity: str        # "error" | "warning" | "info"
    line: int
    message: str
    code: str = ""
    directive: int | None = None
    target: str | None = None
    fixit: str = ""
    saving_s: float | None = None

    def __str__(self) -> str:
        code = f" [{self.code}]" if self.code else ""
        tgt = (f" ({self.target})"
               if self.target and self.target != "*" else "")
        return f"{self.severity}{code}: line {self.line}: " \
               f"{self.message}{tgt}"

    def sort_key(self) -> tuple[int, str, int, str]:
        """Deterministic report ordering: (line, code, severity, msg)."""
        sev = (SEVERITIES.index(self.severity)
               if self.severity in SEVERITIES else len(SEVERITIES))
        return (self.line, self.code, sev, self.message)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation (stable field order)."""
        out: dict[str, object] = {
            "code": self.code,
            "severity": self.severity,
            "line": self.line,
            "message": self.message,
        }
        if self.directive is not None:
            out["directive"] = self.directive
        if self.target is not None:
            out["target"] = self.target
        if self.fixit:
            out["fixit"] = self.fixit
        if self.saving_s is not None:
            out["estimated_saving_s"] = self.saving_s
        return out


def diagnostic_from_dict(data: dict[str, object]) -> Diagnostic:
    """Rebuild a :class:`Diagnostic` from :meth:`Diagnostic.as_dict`.

    Exact inverse of the JSON form: optional fields absent from the
    dict restore their dataclass defaults, so a diagnostic survives a
    JSON round trip bit-for-bit. The sharded lint service
    (:mod:`repro.lintserve`) depends on this to keep parallel and
    memoized reports byte-identical to ``lint_program``'s.
    """
    line = data["line"]
    if not isinstance(line, int):
        raise TypeError(f"diagnostic line must be an int, got {line!r}")
    directive = data.get("directive")
    if directive is not None and not isinstance(directive, int):
        raise TypeError(f"diagnostic directive must be an int, "
                        f"got {directive!r}")
    target = data.get("target")
    saving = data.get("estimated_saving_s")
    if saving is not None and not isinstance(saving, (int, float)):
        raise TypeError(f"estimated_saving_s must be a number, "
                        f"got {saving!r}")
    return Diagnostic(
        severity=str(data["severity"]),
        line=line,
        message=str(data["message"]),
        code=str(data.get("code", "")),
        directive=directive,
        target=str(target) if target is not None else None,
        fixit=str(data.get("fixit", "")),
        saving_s=float(saving) if saving is not None else None,
    )


def make(code: str, line: int, message: str, *,
         directive: int | None = None, target: str | None = None,
         fixit: str | None = None,
         severity: str | None = None,
         saving_s: float | None = None) -> Diagnostic:
    """Build a diagnostic for a rule, defaulting severity and fix-it."""
    rule = RULES.get(code)
    if severity is None:
        severity = rule.severity if rule is not None else "warning"
    if fixit is None:
        fixit = rule.fixit if rule is not None else ""
    return Diagnostic(severity=severity, line=line, message=message,
                      code=code, directive=directive, target=target,
                      fixit=fixit, saving_s=saving_s)
