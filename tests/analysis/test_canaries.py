"""Seeded-violation canaries for the flow-sensitive rules.

Each test re-lints *actual* production source with a one-line violation
spliced in and requires the matching rule to fire.  These are the
blindness detectors for the CFG/call-graph machinery: a refactor that
renames an anchor, breaks attribute typing, or mis-builds the protected
region makes a canary fail before the lint gate silently passes
everything (the fixture pairs alone cannot catch that -- they are
self-contained and never exercise the real tree's shapes).
"""

from pathlib import Path

from repro.analysis.engine import Module, Project, collect_project, run_rules
from repro.analysis.rules.rollback import RollbackCompletenessRule
from repro.analysis.rules.wal_ordering import WalOrderingRule

REPO_ROOT = Path(__file__).resolve().parents[2]

PLATFORM = "src/repro/core/platform.py"
DURABILITY = "src/repro/core/durability.py"


def lint_seeded(relpath, anchor, replacement, rule, more=()):
    """Lint ``src`` with ``anchor`` replaced (plus each ``more`` pair)."""
    seeded = (REPO_ROOT / relpath).read_text(encoding="utf-8")
    for anchor, replacement in ((anchor, replacement), *more):
        assert seeded.count(anchor) == 1, f"anchor moved in {relpath}; update this test"
        seeded = seeded.replace(anchor, replacement, 1)
    project = collect_project(REPO_ROOT, ["src"])
    modules = [
        Module.from_source(seeded, relpath) if m.relpath == relpath else m
        for m in project
    ]
    findings, _ = run_rules(Project(REPO_ROOT, modules), [rule])
    return findings


def test_seeded_unrestored_mutation_fails_rollback():
    """A new mutation inside Sage.advance's protected region, with no
    matching restore in _rollback_hour, must be flagged."""
    anchor = "self.access.begin_staging()"
    findings = lint_seeded(
        PLATFORM,
        anchor,
        anchor + "\n                self._hour_trace = new_blocks",
        RollbackCompletenessRule(),
    )
    assert any(
        f.path == PLATFORM
        and "assigns self._hour_trace" in f.message
        and "_rollback_hour never restores self._hour_trace" in f.message
        for f in findings
    ), "rollback-completeness went blind: seeded unrestored mutation not flagged"


def test_unrestored_waiting_index_fails_rollback():
    """The drive drops a finished session from the waiting index inside a
    loop of a called helper; with the index's capture and restore both
    gone, the rule must flag that nested mutation."""
    findings = lint_seeded(
        PLATFORM,
        '        self._waiting = txn["waiting"]\n',
        "",
        RollbackCompletenessRule(),
        more=[('            "waiting": dict(self._waiting),\n', "")],
    )
    assert any(
        "self._waiting.pop() (via Sage._drive_hour)" in f.message
        and "never restores self._waiting" in f.message
        for f in findings
    ), "rollback-completeness went blind to mutations nested in a callee's loop"


def test_waiting_index_deleted_with_del_fails_rollback():
    """The same nested removal written as ``del self._waiting[row]``:
    with the index's capture and restore gone, the rule must flag the
    ``del`` as it flags ``.pop()``."""
    findings = lint_seeded(
        PLATFORM,
        "                    self._waiting.pop(entry.table_row)\n",
        "                    del self._waiting[entry.table_row]\n",
        RollbackCompletenessRule(),
        more=[
            ('        self._waiting = txn["waiting"]\n', ""),
            ('            "waiting": dict(self._waiting),\n', ""),
        ],
    )
    assert any(
        "deletes self._waiting[...] (via Sage._drive_hour)" in f.message
        and "never restores self._waiting" in f.message
        for f in findings
    ), "rollback-completeness went blind to state removed with del"


def test_seeded_unsynced_append_fails_wal_ordering():
    """Dropping the fsync after the write-ahead record's write must be
    flagged: buffered bytes break the write-ahead guarantee."""
    anchor = (
        "            self._fh.write(encoded)\n"
        "            self._sync()\n"
        "        if self._metrics is not None:\n"
        '            self._metrics.inc("sage_wal_bytes_total", len(encoded))\n'
        '            self._metrics.observe("sage_wal_append_bytes", len(encoded))'
    )
    findings = lint_seeded(
        DURABILITY,
        anchor,
        anchor.replace("            self._sync()\n", "", 1),
        WalOrderingRule(),
    )
    assert any(
        f.path == DURABILITY and "WalWriter.append_hour" in f.message
        for f in findings
    ), "wal-ordering went blind: seeded unsynced append not flagged"


def test_seeded_unsynced_snapshot_publication_fails_wal_ordering():
    """SnapshotStore.write claims the spare by renaming it onto its temp
    name, which needs no fsync; dropping the fsync before the rename onto
    the published ``snapshot-<hour>.snap`` name must still be flagged."""
    anchor = (
        "                fh.truncate(len(blob))\n"
        "                fh.flush()\n"
        "                os.fsync(fh.fileno())\n"
    )
    findings = lint_seeded(
        DURABILITY,
        anchor,
        anchor.replace("                os.fsync(fh.fileno())\n", "", 1),
        WalOrderingRule(),
    )
    assert [f.message.split(" publishes")[0] for f in findings] == ["write()"], (
        "wal-ordering went blind: seeded unsynced snapshot publication not "
        "flagged (or a spare claim was)"
    )


def test_seeded_unsynced_compaction_swap_fails_wal_ordering():
    """The compaction's claim of ``charge.wal.spare`` is not a
    publication, but its swap onto ``charge.wal`` is: without the fsync
    of the rewritten log the swap must be flagged."""
    anchor = (
        "                fh.flush()\n"
        "                os.fsync(fh.fileno())\n"
        "            os.link(self._path, self._spare)\n"
    )
    findings = lint_seeded(
        DURABILITY,
        anchor,
        anchor.replace("                os.fsync(fh.fileno())\n", "", 1),
        WalOrderingRule(),
    )
    assert [f.message.split(" publishes")[0] for f in findings] == ["compact()"], (
        "wal-ordering went blind: seeded unsynced compaction swap not flagged"
    )


def test_seeded_stale_digest_fails_wal_ordering():
    """Committing the hour with a constant instead of a live state digest
    must be flagged: recovery's parity check becomes a no-op."""
    anchor = (
        "wal.commit_hour(\n"
        "                    self._hours_committed - 1, durability.state_digest(self)\n"
        "                )"
    )
    findings = lint_seeded(
        PLATFORM,
        anchor,
        "wal.commit_hour(self._hours_committed - 1, 0)",
        WalOrderingRule(),
    )
    assert any(
        f.path == PLATFORM and "without a digest" in f.message for f in findings
    ), "wal-ordering went blind: seeded constant digest not flagged"


def test_unseeded_control_for_the_new_rules():
    """The exact project build the canaries use, minus the splices, is
    clean under both flow-sensitive rules."""
    project = collect_project(REPO_ROOT, ["src"])
    findings, _ = run_rules(
        project,
        [RollbackCompletenessRule(), WalOrderingRule()],
    )
    assert findings == [], "\n".join(f.render() for f in findings)
