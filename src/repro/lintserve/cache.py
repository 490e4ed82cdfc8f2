"""On-disk memoization of per-file lint results.

Verification cost is a pure function of its inputs: every file's lint
(:mod:`repro.lintserve.scheduler`) is deterministic in (source text,
world size, variable bindings, target sweep, ``--advise``) — *and* in
the analysis code itself. The cache therefore keys each result by a
content hash over

* an **analysis-version salt** — a digest of every ``repro`` source
  file, so editing any analyzer invalidates the whole cache rather
  than serving stale verdicts;
* the **payload** — the raw source text plus the parameters the
  result is a function of (the :class:`~repro.lintserve.scheduler.
  FileTask`).

This is the same content-hash idiom the fix ledger uses for rewrite
signatures and :func:`repro.core.analysis.hb.unroll_key` uses for the
in-process graph cache, extended with the version salt and persisted
to disk: a re-lint of an unchanged tree costs one hash lookup per
file, and editing one file invalidates exactly that file's entry.

Entries are one JSON file each, flat under ``<root>/objects/<k>.json``
(one entry per linted file keeps even a large tree well within one
directory; the ``objects`` directory is created on the first store
that finds it missing). Each is written atomically (temp file +
``os.replace``), so concurrent writers — pool workers, concurrent
``repro-lint`` runs sharing one cache directory — can never publish a
torn entry. A corrupt, truncated or non-object entry is treated as a
miss and deleted.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

__all__ = ["ResultCache", "analysis_salt", "unit_key"]

#: Computed lazily, once per process (hashing ~200 source files).
_SALT: str | None = None


def analysis_salt() -> str:
    """Digest of every ``repro`` python source file.

    Any change to the package — an analyzer, the simulator, the
    generator — changes the salt and with it every cache key, so a
    stale cache can never survive a toolchain edit. (The CI workflow
    keys its ``actions/cache`` entry on the same file set.)
    """
    global _SALT
    if _SALT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _SALT = h.hexdigest()
    return _SALT


def unit_key(payload: object, salt: str | None = None) -> str:
    """Content hash identifying one memoizable unit of analysis.

    ``payload`` must be a value whose ``repr`` is deterministic and
    total over the unit's inputs (tuples of primitives; include the
    source *text*, not a path — renaming a file must hit).
    """
    h = hashlib.sha256()
    h.update((salt if salt is not None else analysis_salt()).encode())
    h.update(b"\0")
    h.update(repr(payload).encode())
    return h.hexdigest()


class ResultCache:
    """Content-addressed store of JSON results with hit counters."""

    def __init__(self, root: str | Path,
                 salt: str | None = None) -> None:
        self.root = Path(root)
        self.salt = salt if salt is not None else analysis_salt()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(self, payload: object) -> str:
        """The cache key for one result (see :func:`unit_key`)."""
        return unit_key(payload, self.salt)

    def _path(self, key: str) -> Path:
        return self.root / "objects" / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored result for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                value = json.load(fh)
        except FileNotFoundError:
            # The common case: nothing stored under this key yet.
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            value = None
        if not isinstance(value, dict):
            # A torn/corrupt entry (killed writer on a non-atomic
            # filesystem) or a non-object one is dropped and redone.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: dict) -> None:
        """Store ``value`` under ``key`` atomically."""
        path = self._path(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        data = json.dumps(value, separators=(",", ":")).encode()
        try:
            try:
                fh = open(tmp, "wb")
            except FileNotFoundError:
                # The first store under this root (or ``objects/`` was
                # removed since): create the directory, then retry.
                tmp.parent.mkdir(parents=True, exist_ok=True)
                fh = open(tmp, "wb")
            with fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError:
            # Cache writes are best-effort: a full disk or unwritable
            # dir degrades to uncached operation, never to failure.
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.stores += 1

    @property
    def lookups(self) -> int:
        """Total get() calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store."""
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> dict:
        """Counters for the ``--stats-out`` artifact and CI asserts."""
        return {
            "root": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": round(self.hit_rate, 4),
        }

