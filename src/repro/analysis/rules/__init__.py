"""Rule registry for the invariant linter.

``ALL_RULES`` is the canonical ordering: it fixes both the ``--list-rules``
output and the rule order inside the JSON report, so keep it stable and
append new rules at the end (see the package docstring in
``repro.analysis`` for the full recipe for adding one).
"""

from __future__ import annotations

from typing import List

from repro.analysis.engine import Rule
from repro.analysis.rules.api_hygiene import ApiHygieneRule
from repro.analysis.rules.float_determinism import FloatDeterminismRule
from repro.analysis.rules.paired_calls import PairedCallsRule
from repro.analysis.rules.purity import PurityRule
from repro.analysis.rules.rollback import RollbackCompletenessRule
from repro.analysis.rules.schema_width import SchemaWidthRule
from repro.analysis.rules.telemetry import TelemetryIsolationRule
from repro.analysis.rules.wal_ordering import WalOrderingRule

__all__ = ["ALL_RULES", "default_rules"]

ALL_RULES = (
    PurityRule,
    PairedCallsRule,
    SchemaWidthRule,
    FloatDeterminismRule,
    ApiHygieneRule,
    RollbackCompletenessRule,
    WalOrderingRule,
    TelemetryIsolationRule,
)


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in canonical order."""
    return [cls() for cls in ALL_RULES]
