"""Lint engine: orchestrates rules over files and model contexts.

Importing this module registers every built-in rule (the rule modules
register themselves on import).  :func:`run_lint` is the single entry point
the CLI and the tests share.  One run

1. parses the target files (``parse-error`` for those that do not parse);
2. runs the code and project rules, including the whole-program analyzer
   rules of :mod:`repro.analyze.rules`;
3. applies ``# lint: disable=`` suppressions with statement anchoring, and
   reports a bare suppression of a ``justify`` rule as
   ``unjustified-suppression``;
4. regenerates the partition-safety manifest and, when the linted path is
   the whole ``repro`` package, diffs it against (or rewrites) the
   committed ``analyze-manifest.json``;
5. unless model checks are off, runs the model rules over topologies and
   statically verifies every routing epoch of each corpus entry's fault
   schedule (``epoch-*``).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

import repro.lint.code_rules  # noqa: F401
import repro.lint.project_rules  # noqa: F401
from repro.lint.findings import Finding, Severity
from repro.lint.registry import (
    CODE_RULES,
    PROJECT_RULES,
    all_rules,
    engine_rule,
    rule_applies,
)
from repro.lint.sources import ParsedFile, collect_py_files, parse_file
from repro.lint.suppress import (
    find_suppression,
    parse_suppression_comments,
    statement_anchors,
)

MANIFEST_NAME = "analyze-manifest.json"
"""The partition-safety manifest, at the root of the checkout."""

DEFAULT_CORPUS = pathlib.Path("tests", "fuzz_corpus")
"""Corpus whose fault schedules every full-package run verifies."""

engine_rule(
    "parse-error",
    "every scanned file must parse",
    "a file the engine cannot parse is a file no rule has checked",
)
engine_rule(
    "unjustified-suppression",
    "a suppression of a whole-program analyzer rule must say why it is "
    "safe: append ' -- <reason>' to the disable comment",
    "the analyzer rules guard determinism and partition safety across the "
    "whole program; silencing one is a claim about code elsewhere, so the "
    "claim is written down next to the comment",
)
engine_rule(
    "manifest-missing",
    "a run over the whole repro package needs the committed "
    f"{MANIFEST_NAME}",
    "the manifest is the reviewable record of which simulation modules "
    "runner cells may share under --jobs",
)
engine_rule(
    "manifest-drift",
    f"the committed {MANIFEST_NAME} must be byte-identical to a fresh "
    "regeneration",
    "a module changing partition-safety class must show up in review, "
    "not drift silently",
)
engine_rule(
    "epoch-cdg-cycle",
    "the multicast-extended channel dependency graph must stay acyclic "
    "at every routing epoch a corpus fault schedule reaches",
    "up*/down* deadlock freedom must survive every reconfiguration, not "
    "just the intact epoch 0",
)
engine_rule(
    "epoch-escape-cdg-cycle",
    "with virtual channels, the escape lanes' dependency graph must stay "
    "acyclic at every routing epoch",
    "the escape lanes are what keeps a multi-lane fabric deadlock-free",
)
engine_rule(
    "epoch-reachability",
    "down-port reachability strings must cover the orientation's witness "
    "subtrees at every routing epoch",
    "a string missing a descendant silently drops that destination during "
    "tree-worm replication after a reconfiguration",
)
engine_rule(
    "epoch-disconnect",
    "every scheduled fault must leave the switch graph connected",
    "reconfiguration cannot absorb a fault that partitions the network",
)
engine_rule(
    "epoch-corpus-unreadable",
    "every corpus entry must load as a valid scenario",
    "an entry that does not load is a regression nobody replays",
)


class LintUsageError(Exception):
    """A bad input (e.g. an unloadable topology file), not a lint finding."""


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    contexts_checked: int = 0
    suppressed: int = 0
    manifest: dict = field(default_factory=dict)
    """Partition-safety manifest of the scanned files."""

    epochs_verified: dict[str, int] = field(default_factory=dict)
    """Corpus entry path -> number of routing epochs proven safe."""

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0


def _engine_finding(
    rule_id: str, path: str | pathlib.Path, message: str
) -> Finding:
    return Finding(
        rule=rule_id, severity=Severity.ERROR, path=str(path), line=0,
        col=0, message=message,
    )


def _apply_suppressions(
    files: dict[str, ParsedFile], raw: list[Finding], result: LintResult
) -> None:
    """Drop suppressed findings; flag unjustified ``justify``-rule ones."""
    # Comments and anchors only for files that have findings at all.
    per_file: dict[str, tuple[dict, dict]] = {}
    rules = all_rules()
    unjustified: dict[tuple[str, int], Finding] = {}
    for finding in raw:
        if finding.path not in per_file:
            pf = files[finding.path]
            per_file[pf.path] = (
                parse_suppression_comments(pf.source),
                statement_anchors(pf.tree),
            )
        comments, anchors = per_file[finding.path]
        hit = find_suppression(comments, finding.rule, finding.line, anchors)
        if hit is None:
            result.findings.append(finding)
            continue
        result.suppressed += 1
        line, supp = hit
        if rules[finding.rule].justify and supp.justification is None:
            unjustified[(finding.path, line)] = Finding(
                rule="unjustified-suppression",
                severity=Severity.ERROR,
                path=finding.path,
                line=line,
                col=0,
                message=(
                    f"suppression of {finding.rule} has no justification; "
                    "append ' -- <why this is safe>' to the disable comment"
                ),
            )
    result.findings.extend(unjustified.values())


def _checkout_root(paths: list[pathlib.Path]) -> pathlib.Path | None:
    """The checkout whose manifest a run checks, if ``paths`` is exactly
    the ``<root>/src/repro`` package: the only file set it describes."""
    if len(paths) != 1:
        return None
    pkg = paths[0].resolve()
    if pkg.name == "repro" and pkg.parent.name == "src" \
            and (pkg / "__init__.py").is_file():
        return pkg.parents[1]
    return None


def _check_manifest(
    manifest: dict, path: pathlib.Path, write: bool, result: LintResult
) -> None:
    fresh = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    if write:
        path.write_text(fresh, encoding="utf-8")
    elif not path.exists():
        result.findings.append(_engine_finding(
            "manifest-missing", path,
            "partition-safety manifest not found; generate it with "
            "repro-lint --write-manifest and commit it",
        ))
    elif path.read_text(encoding="utf-8") != fresh:
        result.findings.append(_engine_finding(
            "manifest-drift", path,
            "committed manifest is not byte-identical to a fresh "
            "regeneration; rerun repro-lint --write-manifest and commit "
            "the result",
        ))


def _verify_corpora(
    corpus_dirs: list[pathlib.Path], result: LintResult
) -> None:
    from repro.analyze.epochs import verify_scenario_epochs
    from repro.fuzz.corpus import corpus_files, load_entry

    for directory in corpus_dirs:
        for path in corpus_files(directory):
            try:
                scenario = load_entry(path)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                result.findings.append(_engine_finding(
                    "epoch-corpus-unreadable", path,
                    f"cannot load corpus entry: {exc}",
                ))
                continue
            problems = verify_scenario_epochs(scenario)
            for problem in problems:
                result.findings.append(_engine_finding(
                    f"epoch-{problem.kind}", path, problem.message(),
                ))
            if not problems:
                result.epochs_verified[str(path)] = (
                    len(scenario.fault_schedule) + 1
                )


def _run_model_rules(
    model_seeds: tuple[int, ...],
    topology_files: list[pathlib.Path],
    result: LintResult,
) -> None:
    from repro.lint.model_rules import context_from_topology, default_contexts
    from repro.lint.registry import MODEL_RULES

    contexts = default_contexts(model_seeds) if model_seeds else []
    for tf in topology_files:
        from repro.params import SimParams
        from repro.topology.serialization import load_topology

        try:
            topo = load_topology(tf)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise LintUsageError(
                f"cannot load topology {tf}: {exc}"
            ) from exc
        params = SimParams(
            num_nodes=topo.num_nodes,
            num_switches=topo.num_switches,
            ports_per_switch=topo.ports_per_switch,
        )
        contexts.append(context_from_topology(topo, params, tf.name))
    for ctx in contexts:
        for r in MODEL_RULES.values():
            result.findings.extend(r.check(ctx))
    result.contexts_checked = len(contexts)


def run_lint(
    paths: list[pathlib.Path],
    *,
    run_model: bool = True,
    model_seeds: tuple[int, ...] = (1, 2, 3),
    topology_files: list[pathlib.Path] | None = None,
    corpus_dirs: list[pathlib.Path] | None = None,
    write_manifest: bool = False,
) -> LintResult:
    """Run every applicable rule; returns findings sorted by location.

    ``paths`` are files/directories for the code and project rules.  Model
    rules run over irregular topologies generated at ``model_seeds`` under
    the default parameters, plus any explicitly supplied topology JSON
    files; with them, the fault schedules of ``corpus_dirs`` (plus
    ``tests/fuzz_corpus`` on a full-package run) are verified epoch by
    epoch.  ``write_manifest`` rewrites ``analyze-manifest.json`` instead
    of diffing it.  Model imports stay lazy so source-only linting never
    pulls in the simulator.
    """
    # Imported here, not at the top: repro.analyze's modules import
    # repro.lint submodules, and importing any of those runs this package's
    # __init__, which imports this module.  The import also registers the
    # analyzer rules.
    from repro.analyze.rules import partition_manifest

    root = _checkout_root(paths)
    if write_manifest and root is None:
        raise LintUsageError(
            "--write-manifest needs the repro package under src/ as the "
            "only path"
        )
    corpora = list(corpus_dirs or [])
    if root is not None and (root / DEFAULT_CORPUS).is_dir():
        corpora.insert(0, root / DEFAULT_CORPUS)
    for c in corpora:
        if not c.is_dir():
            raise LintUsageError(f"no such corpus directory: {c}")
    corpora = list({c.resolve(): c for c in corpora}.values())

    result = LintResult()
    files: dict[str, ParsedFile] = {}
    for path in collect_py_files(paths):
        try:
            pf = parse_file(path, roots=paths)
        except SyntaxError as exc:
            result.findings.append(Finding(
                rule="parse-error",
                severity=Severity.ERROR,
                path=str(path),
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}",
            ))
            continue
        files[pf.path] = pf
    result.files_scanned = len(files)

    raw: list[Finding] = []
    for pf in files.values():
        for r in CODE_RULES.values():
            if rule_applies(r, pf.scope):
                raw.extend(r.check(pf.tree, pf.path, pf.scope))
    for r in PROJECT_RULES.values():
        raw.extend(r.check(files))
    _apply_suppressions(files, raw, result)

    result.manifest = partition_manifest(files)
    if root is not None:
        _check_manifest(
            result.manifest, root / MANIFEST_NAME, write_manifest, result
        )

    if run_model:
        _run_model_rules(model_seeds, topology_files or [], result)
        _verify_corpora(corpora, result)

    result.findings.sort(key=Finding.sort_key)
    return result
