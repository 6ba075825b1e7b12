"""Telemetry-isolation rule: observation never crosses into accounting.

PR 9's determinism contract (see :mod:`repro.obs`) has two structural
halves, and this rule enforces both statically:

* **Pure read paths stay telemetry-free.**  Spans and metrics are emitted
  only from driver/mutating coordination points; anything reachable from
  the pure-read seeds (``propose_peek`` / ``admits_keys`` / ``can_charge``
  / ``max_epsilon``) must contain no telemetry emission.  The hazard is
  concrete: ``can_charge`` and ``charge`` share ``_key_rows`` and the
  filter's ``admits_batch``, so a span emitted there would fire from
  every admissibility probe too -- a trace that depends on how often a read
  was asked rather than on what was committed.  Reachability reuses the
  purity rule's typed call graph (one build per project, cached on it).
* **Telemetry never mutates accounting.**  Modules under ``src/repro/obs/``
  observe through documented pure reads; a call to any known accounting
  mutator (``charge_many``, ``write_rows``, ``settle``, ...) from an
  exporter or registry helper would let "turn on metrics" change the
  accounting trajectory -- exactly what the telemetry-on/off byte-parity
  property forbids.

A telemetry *emission* is a ``span`` / ``event`` / ``inc`` / ``set_gauge``
/ ``observe`` / ``record_span`` call whose receiver chain is rooted in
telemetry state (a name containing ``tracer`` / ``telemetry`` /
``metrics`` / ``profiler`` / ``probe`` -- the platform deliberately names
its handles that way).  Every tracer record carries a wall-clock reading
beside its logical tick, so the same isolation protects the wall
profile too: a span on a pure read path would put read traffic into the
profile of the committed hour.  ``record_span`` and the ``profiler``
root match no handle in this tree; they stay in the sets so a handle
by those names is still checked -- dropping them would only loosen the
rule.  Deliberate
exceptions carry the standard ``# repro: allow(telemetry-isolation) --
reason`` marker.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable

from repro.analysis.callgraph import MethodRef
from repro.analysis.engine import Finding, Module, Project, Rule
from repro.analysis.astutil import MUTATOR_METHODS, attr_chain, call_name
from repro.analysis.rules.purity import PurityRule

__all__ = ["TelemetryIsolationRule", "TELEMETRY_METHODS"]

_CORE_PREFIX = "src/repro/core/"
_OBS_PREFIX = "src/repro/obs/"

#: Emission surface of the tracer and the metrics registry, plus
#: ``record_span`` (synthesizing an already-closed span from a separately
#: measured duration is still an emission).
TELEMETRY_METHODS = frozenset(
    {"span", "event", "inc", "set_gauge", "observe", "record_span"}
)

# Receiver-chain roots that mark a call as telemetry emission.
_TELEMETRY_ROOTS = ("tracer", "telemetry", "metrics", "profiler", "probe")


def _is_telemetry_emission(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in TELEMETRY_METHODS:
        return False
    chain = attr_chain(func.value)
    return any(
        root in part.lower() for part in chain for root in _TELEMETRY_ROOTS
    )


class TelemetryIsolationRule(Rule):
    name = "telemetry-isolation"
    description = (
        "pure read paths must emit no telemetry, and telemetry modules "
        "must never call accounting mutators"
    )

    def applies(self, module: Module) -> bool:
        return module.relpath.startswith((_CORE_PREFIX, _OBS_PREFIX))

    def check(self, module: Module, project: Project) -> Iterable[Finding]:
        if module.relpath.startswith(_OBS_PREFIX):
            yield from self._check_obs(module)
        else:
            yield from self._check_pure_paths(module, project)

    # ------------------------------------------------------------------
    # Direction 1: nothing pure-reachable emits telemetry
    # ------------------------------------------------------------------
    def _check_pure_paths(
        self, module: Module, project: Project
    ) -> Iterable[Finding]:
        graph = PurityRule()._project_graph(project)
        callgraph = graph["callgraph"]
        parents: Dict[MethodRef, MethodRef] = graph["parents"]
        for ref in sorted(graph["reached"]):
            defn = callgraph.method_def(ref)
            if defn is None:
                continue
            owner_module, func = defn
            if owner_module is not module:
                continue
            qualname = f"{ref[0]}.{ref[1]}" if ref[0] else ref[1]
            chain = PurityRule._seed_chain(ref, parents)
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and _is_telemetry_emission(node):
                    yield self.finding(
                        module,
                        node,
                        f"{qualname} emits telemetry via "
                        f"`.{node.func.attr}()`, but it is reachable from "
                        f"pure read path {chain} -- emission belongs on the "
                        "serial mutating drive only",
                    )

    # ------------------------------------------------------------------
    # Direction 2: obs modules never call accounting mutators
    # ------------------------------------------------------------------
    def _check_obs(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node)
            if callee in MUTATOR_METHODS:
                yield self.finding(
                    module,
                    node,
                    f"telemetry module calls accounting mutator "
                    f"`{callee}()` -- observers read platform state, they "
                    "never change it",
                )
