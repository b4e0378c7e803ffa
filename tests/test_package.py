"""The package surface: the names ``grushinlab`` exports, the imports of its
users, the attributes the benchmark's tracer patches, the demos that run on
it, and the README's account of the config format."""

import ast
import glob
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

import grushinlab
from grushinlab.runner import _SHAPE

from conftest import REPO_ROOT

# What the CLI, the demos, the README, bench/ and the acceptance module use;
# everything else stays importable from its own module.
PUBLIC = {
    "BoxDomain", "ConfigError", "EnergyRecord", "GrushinSpace", "Power",
    "SimConfig", "SolverError", "apply", "assemble_grushin", "build_grid",
    "build_initial_condition", "check_blowup_hypothesis", "check_f_positive",
    "check_global_hypothesis", "compute_blowup_constants", "concavity_margin",
    "decay_margin", "dilate", "eval_F", "grushin_energy",
    "homogeneous_dimension", "integral", "l2_norm_sq", "parse_config",
    "parse_expression", "read_csv", "run", "run_experiment", "run_sweep",
    "smallest_eigenpair",
}


def read_readme():
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_package_exports_the_pinned_names():
    names = {name for name, value in vars(grushinlab).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


def test_users_imports_from_the_package_resolve():
    sources = sorted(glob.glob(os.path.join(REPO_ROOT, "demos", "*.py")))
    sources.append(os.path.join(REPO_ROOT, "tests", "test_acceptance.py"))
    codes = []
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            codes.append((os.path.basename(path), fh.read()))
    for i, block in enumerate(
            re.findall(r"```python\n(.*?)```", read_readme(), re.S)):
        codes.append((f"README.md python block {i + 1}", block))
    imported = []
    for where, code in codes:
        for node in ast.walk(ast.parse(code)):
            if isinstance(node, ast.ImportFrom) and node.module == "grushinlab":
                imported += [(where, alias.name) for alias in node.names]
    assert {where for where, _ in imported} == {where for where, _ in codes}
    assert [(where, name) for where, name in imported
            if not hasattr(grushinlab, name)] == []


@pytest.mark.parametrize("script", sorted(
    os.path.basename(path)
    for path in glob.glob(os.path.join(REPO_ROOT, "demos", "*.py"))))
def test_demo_runs(script, tmp_path):
    # Run from a copy: blowup_run.py writes its artifacts next to itself.
    for folder in ("demos", "configs"):
        shutil.copytree(os.path.join(REPO_ROOT, folder), tmp_path / folder,
                        ignore=shutil.ignore_patterns("out"))
    package = os.path.dirname(os.path.dirname(grushinlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(tmp_path / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_import_adds_only_pinned_modules():
    # A benchmark's set-up time is the import plus one parse, in a fresh
    # interpreter that may have to compile every module: numpy aside, the
    # package may load no module beyond these.
    pinned = {"__future__", "_json", "copy", "dataclasses", "json",
              "json.decoder", "json.encoder", "json.scanner"}
    probe = ("import sys, numpy\n"
             "before = set(sys.modules)\n"
             "import grushinlab\n"
             "grushinlab.parse_config(sys.argv[1])\n"
             "print('\\n'.join(set(sys.modules) - before))\n")
    package = os.path.dirname(os.path.dirname(grushinlab.__file__))
    env = dict(os.environ, PYTHONPATH=package)
    done = subprocess.run(
        [sys.executable, "-c", probe,
         os.path.join(REPO_ROOT, "configs", "blowup_cubic.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    added = {name for name in done.stdout.split()
             if name.split(".")[0] != "grushinlab"}
    assert added - pinned == set()


def test_tracer_finds_every_attribute_it_patches():
    # bench/tracing.py wraps package attributes by name; without this test a
    # refactor that renames or moves one shows only in a traced benchmark.
    # The source is compiled here, so nothing is written under bench/.
    path = os.path.join(REPO_ROOT, "bench", "tracing.py")
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    tracing = types.ModuleType("tracing")
    exec(code, vars(tracing))
    tracer = tracing.Tracer("patch-points")
    try:   # a patch that fails is not left on the package for later tests
        tracer.__enter__()
    finally:
        patched = list(tracer._saved)
        tracer.__exit__(None, None, None)
    assert patched
    assert [(owner, attr) for owner, attr, original in patched
            if getattr(owner, attr) is not original] == []


def config_keys(shape):
    for key, value in shape.items():
        yield key
        if isinstance(value, dict):
            yield from config_keys(value)


def test_readme_config_format_names_every_key():
    section = read_readme().split("\n## Config format\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    assert [key for key in config_keys(_SHAPE)
            if not re.search(f"[`\"]{re.escape(key)}[`\"]", section)] == []


def test_readme_names_every_shipped_config():
    names = [os.path.basename(path) for path in
             glob.glob(os.path.join(REPO_ROOT, "configs", "*.json"))]
    assert names
    assert [name for name in names
            if f"`configs/{name}`" not in read_readme()] == []


def test_modules_use_every_name_they_import():
    # __init__.py imports names only to export them.
    package = os.path.dirname(grushinlab.__file__)
    unused = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [(os.path.basename(path), name)
                   for name in sorted(imported - used)]
    assert unused == []


def test_only_the_theorems_name_their_tolerances():
    # How a march is judged is stated once, in theorems.py: no other module
    # may name a tolerance, so none can restate a rule that reads it.
    tolerances = {"BLOWUP_TIME_SLACK", "DECAY_MARGIN_TOL", "CERT_RTOL"}
    package = os.path.dirname(grushinlab.__file__)
    named = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        if os.path.basename(path) == "theorems.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in tolerances:
                named.append((os.path.basename(path), name))
    assert named == []
