"""Per-rule contract tests: each rule fires on its known-bad fixture and
stays silent on the fixed twin (and outside its scope)."""

from pathlib import Path

import pytest

from repro.analysis.engine import Module, Project, run_rules
from repro.analysis.rules.api_hygiene import ApiHygieneRule
from repro.analysis.rules.float_determinism import FloatDeterminismRule
from repro.analysis.rules.paired_calls import PairedCallsRule
from repro.analysis.rules.purity import PurityRule
from repro.analysis.rules.rollback import RollbackCompletenessRule
from repro.analysis.rules.schema_width import SchemaWidthRule
from repro.analysis.rules.telemetry import TelemetryIsolationRule
from repro.analysis.rules.wal_ordering import WalOrderingRule

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"

# (rule class, fixture stem, relpath the fixture is linted *as*, findings
# expected from the bad twin).  The faked relpath places the snippet inside
# the rule's scope; the good twin must be silent at the same relpath.
CASES = [
    (PurityRule, "purity", "src/repro/core/fixture_mod.py", 4),
    (PairedCallsRule, "paired_calls", "src/repro/core/fixture_mod.py", 5),
    (SchemaWidthRule, "schema_width", "tests/core/fixture_mod.py", 3),
    (FloatDeterminismRule, "float_determinism", "src/repro/core/fixture_mod.py", 2),
    (ApiHygieneRule, "api_hygiene", "tests/core/fixture_mod.py", 4),
    (RollbackCompletenessRule, "rollback", "src/repro/core/fixture_mod.py", 3),
    (RollbackCompletenessRule, "rollback_del", "src/repro/core/fixture_mod.py", 2),
    (WalOrderingRule, "wal_ordering", "src/repro/core/fixture_mod.py", 7),
    (TelemetryIsolationRule, "telemetry", "src/repro/core/fixture_mod.py", 3),
    (TelemetryIsolationRule, "telemetry_obs", "src/repro/obs/fixture_mod.py", 2),
    (TelemetryIsolationRule, "telemetry_profiler", "src/repro/core/fixture_mod.py", 3),
]


def lint_fixture(rule_cls, stem, relpath):
    source = (FIXTURES / f"{stem}.py").read_text(encoding="utf-8")
    module = Module.from_source(source, relpath)
    findings, _ = run_rules(Project(REPO_ROOT, [module]), [rule_cls()])
    return findings


@pytest.mark.parametrize(
    "rule_cls,stem,relpath,expected", CASES, ids=[c[0].name for c in CASES]
)
class TestFixturePairs:
    def test_fires_on_known_bad(self, rule_cls, stem, relpath, expected):
        findings = lint_fixture(rule_cls, f"{stem}_bad", relpath)
        assert len(findings) == expected
        assert all(f.rule == rule_cls.name for f in findings)

    def test_silent_on_fixed(self, rule_cls, stem, relpath, expected):
        assert lint_fixture(rule_cls, f"{stem}_good", relpath) == []


class TestScoping:
    def test_purity_out_of_scope_outside_core(self):
        # The same bad snippet linted as workload code: purity does not bind.
        findings = lint_fixture(PurityRule, "purity_bad", "src/repro/workload/x.py")
        assert findings == []

    def test_schema_width_allows_owner_modules(self):
        findings = lint_fixture(
            SchemaWidthRule, "schema_width_bad", "src/repro/core/accountant.py"
        )
        assert findings == []

    def test_paired_calls_out_of_scope_in_tests(self):
        # Tests open batches mid-assertion to exercise error paths on purpose.
        findings = lint_fixture(
            PairedCallsRule, "paired_calls_bad", "tests/core/test_x.py"
        )
        assert findings == []


class TestPurityMessages:
    def test_finding_names_the_seed_chain(self):
        # Chains are class-qualified since the typed call-graph port.
        findings = lint_fixture(PurityRule, "purity_bad", "src/repro/core/m.py")
        assert any("<- Session.propose_peek" in f.message for f in findings)

    def test_finding_names_the_exact_mutation_path(self):
        findings = lint_fixture(PurityRule, "purity_bad", "src/repro/core/m.py")
        messages = "\n".join(f.message for f in findings)
        assert "assigns self.window_blocks" in messages
        assert "writes self._seen[...]" in messages
        assert "calls mutator self._store.retire()" in messages

    def test_mutation_outside_reachable_set_is_legal(self):
        # purity_good's settle() mutates freely: not reachable from any seed.
        assert lint_fixture(PurityRule, "purity_good", "src/repro/core/m.py") == []
