"""Invariant linter: AST-based static enforcement of the accounting contracts.

Sage's correctness story rests on invariants the code can only *state* --
``propose_peek()`` is a pure accountant read, every staged hour closes its
overlay on every path, totals columns are only written through the
filter-declared schema, WAL hours are written ahead and rolled back
completely, and parity-critical accumulation never iterates unordered
containers.  The property-test suite checks these dynamically; this
package is the cheap, always-on static complement that catches a contract
violation at lint time, before a fast path silently diverges.

Usage
-----
::

    PYTHONPATH=src python -m repro.analysis src tests benchmarks
    PYTHONPATH=src python -m repro.analysis --jobs 4 src tests benchmarks
    PYTHONPATH=src python -m repro.analysis --format json --output results/lint_invariants.json

Exit codes: 0 = clean, 1 = findings, 2 = usage/parse error (the CI
``lint-invariants`` job gates on a clean exit).  ``--jobs N`` fans the
rules out over forked workers; the report is bit-identical to a serial
run (``benchmarks/bench_lint.py`` asserts it and gates the wall clock).

The flow-sensitive core
-----------------------
Rules that reason about *paths* rather than single nodes build on three
core modules (stdlib-only, importable without the ``rules`` package):

* :mod:`repro.analysis.cfg` -- ``build_cfg(func)`` turns one function
  into a :class:`~repro.analysis.cfg.CFG`: per-statement nodes, kinds on
  every edge (``normal``/``true``/``false``/``loop``/``exc``), synthetic
  ``entry``/``exit``/``raise_exit`` anchors, ``finally`` bodies cloned
  per exit kind and ``with`` desugared to a synthetic ``__exit__`` node.
  Statements raise iff they contain a call/raise/assert/subscript,
  except declared no-fail closers (``NON_RAISING``).
* :mod:`repro.analysis.dataflow` -- ``solve_forward(cfg, analysis)``
  runs any forward analysis (``initial``/``transfer``/``join``) to
  fixpoint; ``ReachingMutations`` and ``MayAlias`` are the stock
  analyses; ``feasible_path_exists`` / ``always_precedes`` /
  ``always_followed_by`` are the path queries the ordering and pairing
  rules are phrased in (with cheap branch correlation: a path may not
  take the same test both ways unless the tested names were reassigned).
* :mod:`repro.analysis.callgraph` -- ``CallGraph(project)`` resolves
  ``self.x.y(...)`` calls through attribute *types* (constructor
  assignments, annotations, property return types), subclass-aware, so
  interprocedural rules follow real receivers instead of name matches.

The static rules' blind spots (C-level NumPy writes, monkeypatching,
reflection) are covered dynamically by :mod:`repro.analysis.sanitizer`:
``REPRO_SANITIZER=1`` makes the test suite flip the accounting slabs
read-only while any declared-pure call is on the stack, so a smuggled
write faults at its exact line (CI runs tier-1 once in that mode).

A finding is suppressed by an explicit allow comment naming the rule --
the comment text is ``repro: allow(<rule>) -- reason`` after a ``#`` --
placed either on the flagged line or on a standalone comment line
directly above it (a standalone allow covers the next code line, so the
reason may span several comment lines).  When the next code line opens a
function definition -- its ``def`` or the first of its decorators -- the
allow binds through the decorators and the whole (possibly multi-line)
signature to the entire body: one comment above the ``def`` marks the
whole function as a reviewed exception.

Suppressions are deliberate, reviewable artifacts: every one in the tree
should carry a reason after ``--``, and the repo-clean test pins the full
set of files allowed to carry them.

How to add a rule
-----------------
1. Create ``rules/<name>.py`` defining a subclass of
   :class:`repro.analysis.engine.Rule`:

   * set ``name`` (the kebab-case id used in allow comments and reports)
     and ``description`` (one line, shown in ``--list-rules`` and JSON);
   * override ``applies(module)`` if the contract only binds part of the
     tree (compare against ``module.relpath`` -- e.g. purity only scans
     ``src/repro/core/``, paired-calls only ``src/repro/`` so tests may
     exercise error paths freely);
   * implement ``check(module, project)`` yielding
     :class:`~repro.analysis.engine.Finding` via ``self.finding(module,
     node, message)``.  ``project`` carries every scanned module, so
     cross-module analyses (the purity call graph) can see the whole tree.

2. Register the class in ``rules/__init__.py``'s ``ALL_RULES``.
3. Add a known-bad and a known-good fixture under
   ``tests/analysis/fixtures/`` and a firing/silent pair of assertions in
   ``tests/analysis/test_rules.py`` -- a rule without a fixture proving it
   fires is assumed broken.
4. If the rule encodes a dynamic invariant, link it from ROADMAP.md's
   "Architecture invariants" pointer table next to the property test that
   enforces the same contract at runtime.

The engine is stdlib-only (``ast`` + ``re``); rules must not import the
code under analysis, so the linter runs even when the tree is broken.
"""

from repro.analysis.engine import Finding, LintError, Module, Project, Rule

__all__ = ["Finding", "LintError", "Module", "Project", "Rule"]
