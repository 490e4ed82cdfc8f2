"""Cache keying, the on-disk result store and the lint's use of it.

The keying invariants are what make memoization *safe*: the display
path must not participate (rename hits), every analysis input must
(edit misses), and the analysis-version salt must (toolchain edit
invalidates everything). The lint stores one entry per distinct file,
flat under ``objects/``.
"""

import json
import shutil
from pathlib import Path

from repro.core.analysis.lint import lint_program
from repro.core.clauses import Target
from repro.core.pragma import parse_program
from repro.core.pragma.__main__ import render_reports
from repro.lintserve import (
    FileTask,
    ResultCache,
    analysis_salt,
    lint_sources,
    unit_key,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "pragmas"

SRC = "double buf[8];\n"
ALL = tuple(t.value for t in Target)


def _task(source=SRC, nprocs=8, extra_vars=(), swept=ALL, advise=False):
    return FileTask(source, nprocs, extra_vars, swept, advise)


def test_rename_hits_edit_misses():
    # The display path is not a lint input: a renamed file is the
    # same task and so the same key.
    assert "path" not in FileTask._fields
    assert unit_key(_task()) == unit_key(_task())
    assert unit_key(_task()) != \
        unit_key(_task(source=SRC + "\n"))


def test_every_analysis_input_participates():
    base = unit_key(_task())
    variants = [_task(nprocs=4), _task(extra_vars=(("px", 3),)),
                _task(swept=ALL[:1]), _task(advise=True)]
    keys = {unit_key(task) for task in variants}
    assert base not in keys and len(keys) == len(variants)


def test_salt_participates():
    payload = _task()
    assert unit_key(payload, salt="v1") != \
        unit_key(payload, salt="v2")
    # The default salt is the real analysis digest, stable in-process.
    assert unit_key(payload) == \
        unit_key(payload, salt=analysis_salt())


def test_disk_roundtrip_and_counters(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.key(_task())
    assert cache.get(key) is None
    cache.put(key, {"n": 1})
    assert cache.get(key) == {"n": 1}
    assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
    assert cache.hit_rate == 0.5
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["root"] == str(tmp_path)
    # A second cache over the same root sees the entry (persistence).
    assert ResultCache(tmp_path).get(key) == {"n": 1}


def test_corrupt_entry_is_a_miss_and_deleted(tmp_path):
    cache = ResultCache(tmp_path)
    key = cache.key(_task())
    cache.put(key, {"n": 1})
    path = cache._path(key)
    path.write_text("{truncated")
    assert cache.get(key) is None
    assert not path.exists()
    # Non-dict JSON is equally rejected.
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([1, 2]))
    assert cache.get(key) is None
    assert not path.exists()


def test_lazy_mkdir_survives_a_removed_objects_dir(tmp_path):
    cache = ResultCache(tmp_path)
    first, second = (cache.key(_task(nprocs=n)) for n in (2, 4))
    cache.put(first, {"n": 1})
    shutil.rmtree(tmp_path / "objects")
    cache.put(second, {"n": 2})
    assert cache.stores == 2
    assert ResultCache(tmp_path).get(second) == {"n": 2}


def _sources():
    return [(name, (EXAMPLES / name).read_text())
            for name in ("ring.c", "halo1d.c", "evenodd.c")]


def _entries(root):
    return sorted((root / "objects").glob("*.json"))


def test_one_flat_entry_per_file_and_a_fully_memoized_warm_run(
        tmp_path):
    sources = _sources()
    n = len(sources)
    cache = ResultCache(tmp_path)
    cold, cold_stats = lint_sources(sources, cache=cache)
    assert (cache.misses, cache.stores) == (n, n)
    assert cold_stats.units_executed == cold_stats.units_total == n
    assert len(_entries(tmp_path)) == n
    assert list((tmp_path / "objects").iterdir()) == \
        list((tmp_path / "objects").glob("*.json"))

    warm_cache = ResultCache(tmp_path)
    warm, warm_stats = lint_sources(sources, cache=warm_cache)
    assert (warm_cache.hits, warm_cache.misses, warm_cache.stores) == \
        (n, 0, 0)
    assert warm_stats.units_executed == 0
    for fmt in ("json", "sarif"):
        assert render_reports(warm, fmt) == render_reports(cold, fmt)


def test_duplicate_sources_are_linted_and_stored_once(tmp_path):
    ring = (EXAMPLES / "ring.c").read_text()
    cache = ResultCache(tmp_path)
    reports, stats = lint_sources([("ring.c", ring),
                                   ("copy/ring.c", ring)], cache=cache)
    assert (cache.misses, cache.stores) == (1, 1)
    assert len(_entries(tmp_path)) == 1
    # Unit counters still count per input file.
    assert stats.units_executed == stats.units_total == 2
    assert [r.path for r in reports] == ["ring.c", "copy/ring.c"]


def test_corrupt_file_entry_is_relinted_identically(tmp_path):
    sources = _sources()
    cold, _ = lint_sources(sources, cache=ResultCache(tmp_path))
    cache = ResultCache(tmp_path)
    path = cache._path(cache.key(_task(source=sources[1][1])))
    path.write_text('{"structure": {"n_dir')
    warm, stats = lint_sources(sources, cache=cache)
    assert (cache.hits, cache.misses, cache.stores) == (2, 1, 1)
    assert stats.units_executed == 1
    assert isinstance(json.loads(path.read_text()), dict)
    assert render_reports(warm, "json") == render_reports(cold, "json")


def test_subset_sweep_misses_and_matches_the_sequential_path(tmp_path):
    sources = _sources()
    lint_sources(sources, cache=ResultCache(tmp_path))
    subset = [Target.MPI_2SIDE]
    cache = ResultCache(tmp_path)
    reports, stats = lint_sources(sources, targets=subset, cache=cache)
    assert (cache.hits, cache.misses) == (0, len(sources))
    assert stats.units_executed == len(sources)
    expected = [lint_program(parse_program(source), path=path,
                             targets=subset)
                for path, source in sources]
    for fmt in ("json", "sarif"):
        assert render_reports(reports, fmt) == \
            render_reports(expected, fmt)
