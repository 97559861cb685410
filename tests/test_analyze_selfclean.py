"""The analyze gate: the shipped tree must pass the whole-program analyzers.

The analyzers run as ``repro-lint`` rules; this gate pins that they are
registered and that the shipped tree is clean under them, with the corpus
fault schedules proven safe at every routing epoch.  The manifest and
corpus criteria are checked in detail by ``tests/test_lint_selfclean.py``.
"""

import pathlib

from repro.lint import run_lint
from repro.lint.registry import all_rules

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
CORPUS = REPO / "tests" / "fuzz_corpus"

ANALYZER_RULES = (
    "identity-in-sim",
    "unordered-into-sink",
    "runtime-global-mutation",
    "cross-network-mutation",
)


def test_repo_tree_is_analyze_clean():
    result = run_lint([SRC], corpus_dirs=[CORPUS])
    registered = all_rules()
    for rule_id in ANALYZER_RULES:
        assert rule_id in registered, f"analyzer rule {rule_id} not registered"
        assert registered[rule_id].justify, rule_id
    assert result.files_scanned > 100
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.findings == [], f"analyze regressions:\n{rendered}"
    assert result.exit_code == 0
    assert result.epochs_verified
    # The shipped tree needs no suppressions; a new one needs a review here.
    assert result.suppressed == 0
