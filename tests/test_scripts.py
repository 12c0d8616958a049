import ast
import importlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


A = {"runs/a/report.json": "1" * 64, "runs/a/model.bin": "2" * 64}


class TestArtifactDigestsCompare:
    """``--compare`` gates a script: exit 0 only when both trees wrote the same
    files with the same digests. ``digests`` is replaced, so no command runs."""

    @pytest.mark.parametrize("b, code", [
        (dict(A), 0),
        ({**A, "runs/a/model.bin": "3" * 64}, 1),
        ({"runs/a/report.json": "1" * 64}, 1),                  # only the first tree wrote it
        ({**A, "runs/b/extra.csv": "4" * 64}, 1),               # only the second tree wrote it
        (None, 1),                                              # a command failed
    ], ids=["identical", "differs", "only-first", "only-second", "failed"])
    def test_exit_code(self, monkeypatch, capsys, b, code):
        script = load_script("artifact_digests")
        sides = iter([A, b])

        def fake_digests(out, src):
            found = next(sides)
            for rel, digest in (found or {}).items():
                os.makedirs(os.path.dirname(os.path.join(out, rel)), exist_ok=True)
                with open(os.path.join(out, rel), "w") as fh:
                    fh.write(digest)
            return found

        monkeypatch.setattr(script, "digests", fake_digests)
        assert script.main(["--compare", "tree-a", "tree-b"]) == code
        if b is not None:
            differ = len(A.keys() ^ b.keys()) + sum(A[k] != b[k] for k in A.keys() & b.keys())
            assert capsys.readouterr().out.splitlines()[-1].startswith(f"{differ} differ, ")


def test_config_files_are_written_but_not_digested(monkeypatch, tmp_path):
    # the five-class estimate reads its config from OUT_DIR; only what the
    # command wrote is digested
    script = load_script("artifact_digests")
    command = [cmd for cmd in script.COMMANDS if "configs/five-classes.json" in cmd]
    assert len(command) == 1 and command[0][0] == "estimate-constants"
    monkeypatch.setattr(script, "COMMANDS", command)
    found = script.digests(str(tmp_path), os.path.join(ROOT, "src"))
    assert list(found) == ["runs/constants-five-classes/constants.json"]
    assert len(script.CONFIGS) == 2
    for rel in script.CONFIGS:
        assert os.path.exists(tmp_path / rel)


def package_references(path):
    """Every ``(layer, name)`` the script at ``path`` reads off the package,
    found by parsing it, not running it: ``<layer>.<name>`` for a layer module
    it imports from ``fedtradeoff`` (under any alias), and ``ft.<layer>.<name>``
    for the package handed in as ``ft``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "fedtradeoff"
               for alias in node.names}
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in aliases:
            found.add((aliases[owner.id], node.attr))
        elif isinstance(owner, ast.Attribute) and (
                getattr(owner.value, "id", None) == "ft"
                or getattr(owner.value, "attr", None) == "ft"):
            found.add((owner.attr, node.attr))
    return found


@pytest.mark.parametrize("script", ["scripts/pilots.py", "perfbench/workloads.py"])
def test_scripts_read_only_names_the_package_has(script):
    # nothing else in the suite runs these scripts, so a name the package
    # dropped would otherwise surface only when someone runs them
    found = package_references(os.path.join(ROOT, script))
    assert len(found) >= 5
    missing = sorted(f"{layer}.{name}" for layer, name in found
                     if not hasattr(importlib.import_module(f"fedtradeoff.{layer}"), name))
    assert not missing
