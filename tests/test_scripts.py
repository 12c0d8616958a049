import ast
import importlib
import importlib.util
import inspect
import os
import re

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

    @pytest.mark.parametrize("a, b, code", [
        (A, dict(A), 0),
        (A, {**A, "runs/a/model.bin": "3" * 64}, 1),
        (A, {"runs/a/report.json": "1" * 64}, 1),               # only the first tree wrote it
        (A, {**A, "runs/b/extra.csv": "4" * 64}, 1),            # only the second tree wrote it
        (A, None, 1),                                           # a command failed
        ({}, A, 1),                                             # the first tree wrote nothing
    ], ids=["identical", "differs", "only-first", "only-second", "failed", "first-empty"])
    def test_exit_code(self, monkeypatch, capsys, a, b, code):
        script = load_script("artifact_digests")
        sides = iter([a, b])

        def fake_digests(out, src, env_extra=None):
            found = next(sides)
            for rel, digest in (found or {}).items():
                os.makedirs(os.path.dirname(os.path.join(out, rel)), exist_ok=True)
                with open(os.path.join(out, rel), "w") as fh:
                    fh.write(digest)
            return found

        monkeypatch.setattr(script, "digests", fake_digests)
        assert script.main(["--compare", "tree-a", "tree-b"]) == code
        if b is not None:
            differ = len(a.keys() ^ b.keys()) + sum(a[k] != b[k] for k in a.keys() & b.keys())
            assert capsys.readouterr().out.splitlines()[-1].startswith(f"{differ} differ, ")


class TestArtifactDigestsDispatchCompare:
    """``--dispatch-compare`` digests one tree twice, the second time with
    numpy's dispatch above X86_V3 switched off, or skips when numpy does not
    dispatch X86_V4. ``digests`` is replaced, so no command runs."""

    def run(self, monkeypatch, dispatched):
        import numpy._core._multiarray_umath as umath

        script = load_script("artifact_digests")
        runs = []
        monkeypatch.setattr(umath, "__cpu_dispatch__", dispatched)
        monkeypatch.setattr(script, "digests",
                            lambda out, src, env_extra=None: runs.append((src, env_extra)) or A)
        return script.main(["--dispatch-compare", "tree"]), runs

    def test_second_run_switches_the_targets_off(self, monkeypatch, capsys):
        code, runs = self.run(monkeypatch, ["X86_V3", "X86_V4", "AVX512_ICL"])
        tree = os.path.abspath("tree")
        assert code == 0 and runs == [
            (tree, None), (tree, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL"})]
        assert capsys.readouterr().out.splitlines()[-1] == "0 differ, 2 identical"

    def test_skips_without_x86_v4(self, monkeypatch, capsys):
        code, runs = self.run(monkeypatch, ["X86_V2", "X86_V3"])
        assert code == 0 and runs == []
        assert capsys.readouterr().out.startswith("skipped: numpy does not dispatch X86_V4")


def test_config_files_are_written_but_not_digested(monkeypatch, tmp_path):
    # the five-class estimate reads its config from OUT_DIR; only what the
    # command wrote is digested
    script = load_script("artifact_digests")
    command = [cmd for cmd in script.COMMANDS if "configs/five-classes.json" in cmd]
    assert len(command) == 1 and command[0][0] == "estimate-constants"
    monkeypatch.setattr(script, "COMMANDS", command)
    found = script.digests(str(tmp_path), os.path.join(ROOT, "src"))
    assert list(found) == ["runs/constants-five-classes/constants.json"]
    assert len(script.CONFIGS) == 4
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


# public functions of the package that no code in src/, scripts/ or perfbench/
# calls, each kept for its reason
UNREFERENCED = {
    "bounds.private_pac_sample_size": "a paper evaluator the README lists",
    "io.read_results": "the results/v1 reader behind 'parses back to identical rows'",
    "rng.trial_seed": "the one-seed reference that trial_seeds is checked against",
}


def code_references(path):
    """Names a file's code uses, as a name, an attribute or an import; a
    function's uses of its own name inside its body do not count."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = set()
    for top in tree.body:
        own = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            names = ([node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            found.update(name for name in names if name != own)
    return found


def test_every_public_function_has_a_caller():
    # a second entry point that no pipeline calls leaves the package, unless
    # UNREFERENCED keeps it for a stated reason
    package = os.path.join(ROOT, "src", "fedtradeoff")
    folders = (package, os.path.join(ROOT, "scripts"), os.path.join(ROOT, "perfbench"))
    files = {folder: [os.path.join(folder, name) for name in sorted(os.listdir(folder))
                      if name.endswith(".py")] for folder in folders}
    used = set().union(*map(code_references, sum(files.values(), [])))
    unreferenced = set()
    for path in files[package]:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        module = os.path.basename(path)[:-3]
        unreferenced.update(f"{module}.{node.name}" for node in tree.body
                            if isinstance(node, ast.FunctionDef)
                            and not node.name.startswith("_") and node.name not in used)
    assert unreferenced == set(UNREFERENCED)


def readme_config_keys():
    """The backticked keys in the first column of the README's "Config file
    fields" table."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("### Config file fields\n", 1)[1].split("\n#", 1)[0]
    return {key for line in section.splitlines() if line.startswith("| `")
            for key in re.findall(r"`([^`]+)`", line.split("|")[1])}


def config_leaves(tree, prefix=""):
    """The dotted paths of a nested dict's leaves."""
    for name, value in tree.items():
        if isinstance(value, dict):
            yield from config_leaves(value, f"{prefix}{name}.")
        else:
            yield prefix + name


def test_readme_config_table_names_every_leaf():
    # a config file may set every leaf of ExperimentConfig.to_dict(): the table
    # says what each one does, and names nothing else
    from fedtradeoff import cli

    leaves, keys = set(config_leaves(cli.default_config().to_dict())), readme_config_keys()
    assert {"missing": sorted(leaves - keys), "unknown": sorted(keys - leaves)} == {
        "missing": [], "unknown": []}


def source_line(function, text):
    """The line number of the line of ``function`` whose code is ``text``."""
    lines, first = inspect.getsourcelines(function)
    return first + [line.strip() for line in lines].index(text)


def test_unreached_lists_what_the_commands_did_not_run():
    # the tracer over one short train: a statement it ran is left out, one
    # it did not run is listed, a raise is marked, and every module counted
    from fedtradeoff import cli, protocol

    script = load_script("unreached")
    package = os.path.dirname(os.path.abspath(cli.__file__))
    hits, failed = script.trace([["train", "--rounds", "1", "--out", "runs/t"]], {}, package)
    assert failed == []
    lines = script.unreached(hits, script.statements(package))
    listed = [line for line in lines if re.match(r"\w+\.py:\d+ ", line)]
    assert all(re.fullmatch(r"\w+\.py:\d+ [\w.]+: \S.*", line) for line in listed)
    assert all(re.fullmatch(r"\w+\.py: \d+ unreached, \d+ of them raises", line)
               for line in lines[len(listed):])
    assert len(lines) - len(listed) == len(
        [name for name in os.listdir(package) if name.endswith(".py")]) - 1   # __init__
    ran = source_line(cli.cmd_train, "seed = config.master_seed")
    assert not [line for line in listed if line.startswith(f"cli.py:{ran} ")]
    assert f"cli.py:{source_line(cli.cmd_attack, 'run_dir = args.run_dir')} cmd_attack: " \
           "run_dir = args.run_dir" in listed
    empty = source_line(protocol.run_batch, 'raise ConfigurationError("client dataset is empty")')
    assert (f"protocol.py:{empty} run_batch: "
            'raise ConfigurationError("client dataset is empty")  (raise)') in listed
