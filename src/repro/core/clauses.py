"""The ten directive clauses and their validation rules.

Section III-B of the paper defines ten clauses. Four are required —
``sender``, ``receiver``, ``sbuf``, ``rbuf``; six are optional —
``sendwhen``, ``receivewhen``, ``target``, ``count``, ``place_sync``,
``max_comm_iter`` — and the last two may only be used with
``comm_parameters``. The validation rules implemented here are the
paper's:

* ``sendwhen`` and ``receivewhen`` must both be present or both absent;
* ``place_sync``/``max_comm_iter`` are rejected on ``comm_p2p``;
* ``target`` accepts the three ``TARGET_COMM_*`` keywords, defaulting
  to two-sided non-blocking MPI;
* ``count`` may be omitted only when at least one listed buffer is an
  array — the inferred message size is the *smallest* array length;
* a ``comm_p2p``'s clauses are those of its innermost enclosing
  ``comm_parameters`` region, with instance clauses overriding and the
  region-only clauses never merging down (:func:`override`; the one
  static implementation is :meth:`repro.core.ir.Program.p2p_clauses`).

The checks split by what they depend on. :func:`check_names` and
:func:`p2p_plan` read only clause *names*, so they are memoised and a
directive site resolves them once, as the paper's compiler does at
translation time. :func:`normalize` and the buffer checks of
:mod:`repro.core.buffers` read the evaluated values and run on every
execution.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Any, Mapping, TypeVar

from repro.errors import ClauseError


class Target(enum.Enum):
    """Keywords accepted by the ``target`` clause."""

    MPI_1SIDE = "TARGET_COMM_MPI_1SIDE"
    MPI_2SIDE = "TARGET_COMM_MPI_2SIDE"
    SHMEM = "TARGET_COMM_SHMEM"

    @classmethod
    def parse(cls, value: "Target | str") -> "Target":
        """Accept the enum member or its keyword spelling."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ClauseError(
                f"target clause accepts "
                f"{[t.value for t in cls]}; got {value!r}") from None


#: The default translation when no ``target`` clause is present
#: (Section III-B: "the default library calls that are generated are
#: MPI non-blocking send and receive").
DEFAULT_TARGET = Target.MPI_2SIDE


class SyncPlacement(enum.Enum):
    """Keywords accepted by the ``place_sync`` clause."""

    END_PARAM_REGION = "END_PARAM_REGION"
    BEGIN_NEXT_PARAM_REGION = "BEGIN_NEXT_PARAM_REGION"
    END_ADJ_PARAM_REGIONS = "END_ADJ_PARAM_REGIONS"

    @classmethod
    def parse(cls, value: "SyncPlacement | str") -> "SyncPlacement":
        """Accept the enum member or its keyword spelling."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise ClauseError(
                f"place_sync clause accepts "
                f"{[p.value for p in cls]}; got {value!r}") from None


#: Every clause name of the two directives.
CLAUSES = frozenset(("sender", "receiver", "sbuf", "rbuf", "sendwhen",
                     "receivewhen", "target", "count", "place_sync",
                     "max_comm_iter"))

#: Clause names legal only on ``comm_parameters``.
PARAMETERS_ONLY = ("place_sync", "max_comm_iter")

#: The four required clauses of a fully resolved ``comm_p2p`` instance.
REQUIRED = ("sender", "receiver", "sbuf", "rbuf")

V = TypeVar("V")


def override(region: Mapping[str, V],
             instance: Mapping[str, V]) -> dict[str, V]:
    """Apply a region's clauses to a ``comm_p2p`` instance.

    Region assertions apply to all instances in scope; the instance
    "may provide additional assertions" which override
    (Section III-A). The region-only clauses never merge down. The
    runtime plan applies this rule to clause names, the static IR to
    clause expressions.
    """
    merged = {k: v for k, v in region.items() if k not in PARAMETERS_ONLY}
    merged.update(instance)
    return merged


@lru_cache(maxsize=None)
def check_names(directive: str, names: frozenset[str]) -> None:
    """Validate the clause names given to a ``comm_parameters``
    (``directive = "parameters"``) or ``comm_p2p`` (``"p2p"``)
    directive. Only successful checks are cached: a failing name set
    raises again, with the same message, on every call."""
    unknown = names - CLAUSES
    if unknown:
        raise ClauseError(
            f"unknown clause(s) {sorted(unknown)}; the directives "
            f"accept {sorted(CLAUSES)}")
    if directive == "p2p":
        illegal = [n for n in PARAMETERS_ONLY if n in names]
        if illegal:
            raise ClauseError(
                f"clause(s) {illegal} may only be used with "
                "comm_parameters (Section III-B)")
    elif directive != "parameters":
        raise ClauseError(f"unknown directive kind {directive!r}")
    if ("sendwhen" in names) != ("receivewhen" in names):
        raise ClauseError(
            "sendwhen and receivewhen must both be present or both "
            "be omitted (Section III-B)")


def normalize(clauses: dict[str, Any]) -> dict[str, Any]:
    """Check and normalise the values of name-checked clauses in place.

    In the paper the clause arguments are C expressions evaluated per
    process (``sender(rank-1)``); in the runtime DSL the caller passes
    the evaluated values. Keyword clauses become their enum members;
    ``count`` and ``max_comm_iter`` must be integers in range. An
    explicit ``None`` is a given clause (and so fails these checks).
    """
    if "target" in clauses:
        clauses["target"] = Target.parse(clauses["target"])
    if "place_sync" in clauses:
        clauses["place_sync"] = SyncPlacement.parse(clauses["place_sync"])
    if "count" in clauses:
        count = clauses["count"]
        if not isinstance(count, int) or isinstance(count, bool) \
                or count < 0:
            raise ClauseError(
                f"count must evaluate to a non-negative integer, "
                f"got {count!r}")
    if "max_comm_iter" in clauses:
        m = clauses["max_comm_iter"]
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ClauseError(
                f"max_comm_iter must evaluate to a positive integer, "
                f"got {m!r}")
    return clauses


@lru_cache(maxsize=None)
def p2p_plan(instance: frozenset[str],
             region: frozenset[str]) -> tuple[str, ...]:
    """Resolve a ``comm_p2p`` instance's clause names against its
    enclosing region's (empty for a standalone instance).

    Returns the clause names the instance inherits from the region;
    every other merged clause is read from the instance itself. Raises
    (and caches nothing) when a required clause is given by neither.
    Both name sets are paired in ``sendwhen``/``receivewhen`` by
    :func:`check_names`, so the merged set is paired too.
    """
    sources = override(dict.fromkeys(region, False),
                       dict.fromkeys(instance, True))
    missing = [n for n in REQUIRED if n not in sources]
    if missing:
        raise ClauseError(
            f"comm_p2p is missing required clause(s) {missing} "
            "(not provided by the directive or its enclosing "
            "comm_parameters region)")
    return tuple(n for n, own in sources.items() if not own)


def merged_view(names: frozenset[str], clauses: dict[str, Any],
                region_names: frozenset[str] = frozenset(),
                region_clauses: Mapping[str, Any] | None = None
                ) -> dict[str, Any]:
    """The clauses a ``comm_p2p`` instance resolves to in its region.

    ``names``/``clauses`` are the instance's checked clauses,
    ``region_names``/``region_clauses`` the enclosing region's (none
    for a standalone instance). Only the values are read here; which
    name comes from where is the memoised :func:`p2p_plan`.
    """
    inherited = p2p_plan(names, region_names)
    if not inherited:
        return clauses
    merged = {n: region_clauses[n] for n in inherited}
    merged.update(clauses)
    return merged
