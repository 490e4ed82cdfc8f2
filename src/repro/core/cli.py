"""The command-line vocabulary every directive tool shares.

``comm-translate``, ``repro-lint``, ``repro-trace`` and ``repro-gen``
name the lowering targets by the same short aliases and bind free
clause variables with the same ``--var NAME=VALUE`` option.
"""

from __future__ import annotations

import argparse

from repro.core.clauses import Target

#: Short command-line names for the lowering targets.
TARGET_ALIASES = {
    "mpi2s": Target.MPI_2SIDE,
    "mpi1s": Target.MPI_1SIDE,
    "shmem": Target.SHMEM,
}


def var_binding(text: str) -> tuple[str, int]:
    """Parse one ``--var NAME=VALUE`` argument.

    Use it as the option's argparse ``type`` with ``action="append"``
    and read the bindings as ``dict(args.var)``: a malformed binding is
    then a usage error (exit 2) whose message names ``--var``.
    """
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expects NAME=VALUE, got {text!r}")
    try:
        return name, int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{name}: {value!r} is not an integer") from None
