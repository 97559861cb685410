"""Rendering lint results for humans and for machines (``--json``)."""

from __future__ import annotations

import json
from collections import Counter

from repro.lint.engine import LintResult
from repro.lint.findings import Severity
from repro.lint.registry import all_rules


def render_text(result: LintResult) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [f.render() for f in result.findings]
    n_err = len(result.errors)
    n_warn = len(result.findings) - n_err
    modules = result.manifest.get("modules", {})
    classes = Counter(e["classification"] for e in modules.values())
    class_summary = ", ".join(
        f"{n} {name}" for name, n in sorted(classes.items())
    ) or "none"
    summary = (
        f"{result.files_scanned} file(s), "
        f"{result.contexts_checked} model context(s), "
        f"{len(modules)} sim module(s) classified ({class_summary}), "
        f"{len(result.epochs_verified)} corpus entr(ies) / "
        f"{sum(result.epochs_verified.values())} epoch(s) verified: "
        f"{n_err} error(s), {n_warn} warning(s)"
    )
    if result.suppressed:
        summary += f", {result.suppressed} suppressed"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Stable machine-readable report for CI consumption."""
    payload = {
        "version": 1,
        "files_scanned": result.files_scanned,
        "contexts_checked": result.contexts_checked,
        "suppressed": result.suppressed,
        "counts": {
            "error": len(result.errors),
            "warning": sum(
                1 for f in result.findings if f.severity is Severity.WARNING
            ),
        },
        "findings": [f.to_json() for f in result.findings],
        "manifest": result.manifest,
        "epochs_verified": result.epochs_verified,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


_KIND_SCOPES = {"model": "topology+routing", "engine": "whole run"}


def render_rule_list() -> str:
    """``--list-rules``: id, kind, scope, and the paper-tied rationale."""
    import repro.analyze.rules  # noqa: F401  (registers the analyzer rules)
    import repro.lint.model_rules  # noqa: F401  (registers the model rules)

    blocks = []
    for rule_id, r in sorted(all_rules().items()):
        scope = _KIND_SCOPES.get(r.kind) or (
            "all code" if r.scopes is None else "/".join(sorted(r.scopes))
        )
        justify = ", needs ' -- why'" if r.justify else ""
        blocks.append(
            f"{rule_id} [{r.kind}, {r.severity.value}, scope: {scope}"
            f"{justify}]\n"
            f"  {r.description}\n"
            f"  why: {r.rationale}"
        )
    return "\n\n".join(blocks)
