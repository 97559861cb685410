"""Static analysis for simulator determinism and up*/down* model invariants.

One engine, one front end:

* **code rules** (AST): seeded-randomness, wall-clock, blanket-except,
  float-timestamp-equality, mutable-default, import-cycle checks over the
  simulation packages -- the hazards that silently break reproducibility of
  the paper's figures;
* **whole-program rules** (:mod:`repro.analyze`): determinism taint and
  partition safety, plus the committed partition-safety manifest;
* **model rules** (semantic): extended channel-dependency-graph acyclicity,
  reachability-string/BFS-tree consistency, path-plan up*/down* legality,
  and header-capacity checks over generated or saved topologies -- the
  invariants the paper's correctness argument names -- and the same
  invariants at every routing epoch of the corpus fault schedules.

Run ``python -m repro.lint src/repro`` (or the ``repro-lint`` script);
suppress a finding in place with ``# lint: disable=<rule-id>``.
"""

from repro.lint.engine import LintResult, run_lint
from repro.lint.findings import Finding, Severity
from repro.lint.registry import all_rules

__all__ = ["Finding", "LintResult", "Severity", "all_rules", "run_lint"]
