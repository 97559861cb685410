"""CLI behaviour of ``python -m repro.lint`` / ``repro-lint``."""

import json
import pathlib
import shutil
import textwrap

from repro.lint import run_lint
from repro.lint.cli import main

REPO = pathlib.Path(__file__).resolve().parents[1]


def plant_violation(tmp_path: pathlib.Path) -> pathlib.Path:
    d = tmp_path / "sim"
    d.mkdir()
    (d / "bad.py").write_text(textwrap.dedent("""
        import time

        def stamp():
            return time.time()
    """))
    return d


def test_violation_exits_nonzero_with_rule_and_location(tmp_path, capsys):
    d = plant_violation(tmp_path)
    code = main([str(d), "--no-model"])
    out = capsys.readouterr().out
    assert code == 1
    assert "wall-clock" in out
    assert "bad.py:5" in out


def test_json_report_is_parseable(tmp_path, capsys):
    d = plant_violation(tmp_path)
    code = main([str(d), "--no-model", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["version"] == 1
    assert payload["counts"]["error"] == 1
    [finding] = payload["findings"]
    assert finding["rule"] == "wall-clock"
    assert finding["line"] == 5


def test_clean_dir_exits_zero(tmp_path, capsys):
    d = tmp_path / "sim"
    d.mkdir()
    (d / "good.py").write_text("def f(x):\n    return x + 1\n")
    assert main([str(d), "--no-model"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_model_rules_run_on_saved_topology(tmp_path, capsys):
    from repro.topology.irregular import generate_irregular_topology
    from repro.topology.serialization import save_topology
    from repro.params import SimParams

    topo = generate_irregular_topology(SimParams(), seed=5)
    tf = tmp_path / "topo.json"
    save_topology(topo, tf)
    d = tmp_path / "sim"
    d.mkdir()
    (d / "empty.py").write_text("")
    code = main([
        str(d), "--model-seeds", "1", "--topology", str(tf), "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["contexts_checked"] == 2  # seed 1 + the saved topology


def test_missing_path_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_list_rules_names_every_family(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "unseeded-random", "wall-clock", "blanket-except", "float-time-eq",
        "mutable-default", "import-cycle", "multicast-cdg-cycle",
        "cdg-negative-control", "reachability-superset",
        "path-plan-legality", "header-capacity", "identity-in-sim",
        "unordered-into-sink", "runtime-global-mutation",
        "cross-network-mutation", "unjustified-suppression",
        "manifest-drift", "manifest-missing", "epoch-cdg-cycle",
        "epoch-reachability", "epoch-disconnect", "epoch-corpus-unreadable",
    ):
        assert f"\n{rule_id} [" in f"\n{out}", rule_id


def test_bare_analyzer_suppression_fails(tmp_path, capsys):
    d = tmp_path / "sim"
    d.mkdir()
    (d / "m.py").write_text(
        "def key(x):\n"
        "    return id(x)  # lint: disable=identity-in-sim\n"
    )
    result = run_lint([tmp_path], run_model=False)
    assert result.exit_code == 1
    assert [(f.rule, f.line) for f in result.findings] == \
        [("unjustified-suppression", 2)]
    assert result.suppressed == 1
    assert main([str(tmp_path), "--no-model"]) == 1
    assert "unjustified-suppression" in capsys.readouterr().out


def test_write_manifest_on_a_copy(tmp_path):
    pkg = tmp_path / "src" / "repro"
    shutil.copytree(REPO / "src" / "repro", pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert main([str(pkg), "--no-model", "--write-manifest"]) == 0
    assert (tmp_path / "analyze-manifest.json").read_bytes() == \
        (REPO / "analyze-manifest.json").read_bytes()
    # A subset of the package is not what the manifest describes.
    assert main([str(pkg / "sim"), "--no-model", "--write-manifest"]) == 2


def test_manifest_missing_and_drift(tmp_path, capsys):
    pkg = tmp_path / "src" / "repro"
    (pkg / "sim").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "sim" / "__init__.py").write_text("")
    (pkg / "sim" / "state.py").write_text("TABLE = {}\n")
    manifest = tmp_path / "analyze-manifest.json"
    assert main([str(pkg), "--no-model"]) == 1
    assert "manifest-missing" in capsys.readouterr().out
    assert main([str(pkg), "--no-model", "--write-manifest"]) == 0
    assert "repro.sim.state" in json.loads(manifest.read_text())["modules"]
    assert main([str(pkg), "--no-model"]) == 0
    manifest.write_text(manifest.read_text() + "\n")
    capsys.readouterr()
    assert main([str(pkg), "--no-model"]) == 1
    assert "manifest-drift" in capsys.readouterr().out


def test_corpus_dirs_are_verified(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    entry = sorted((REPO / "tests" / "fuzz_corpus").glob("chaos-*.json"))[0]
    shutil.copy(entry, corpus / entry.name)
    (corpus / "broken.json").write_text("{}")
    d = tmp_path / "sim"
    d.mkdir()
    (d / "empty.py").write_text("")
    code = main([
        str(d), "--model-seeds", "", "--corpus", str(corpus), "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [f["rule"] for f in payload["findings"]] == \
        ["epoch-corpus-unreadable"]
    [(path, epochs)] = payload["epochs_verified"].items()
    assert path.endswith(entry.name) and epochs > 1


def test_missing_corpus_usage_error(tmp_path, capsys):
    d = tmp_path / "sim"
    d.mkdir()
    assert main([str(d), "--corpus", str(tmp_path / "nope")]) == 2
    assert "no such corpus directory" in capsys.readouterr().err
