"""Package surface: what importing loads, and the oracle's independence."""

import ast
import importlib
import importlib.util
import pathlib
import re
import subprocess
import sys

import quatmotion
from quatmotion import cli, oracle, verification


def test_oracle_imports_only_math_and_numpy():
    # the oracle is an independent derivation only while it reads no
    # package code, so its imports are pinned here
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"math", "numpy"}


def test_no_test_module_imports_another():
    # a test module that imports another runs that module's collection-time
    # code and shares its state, so each one must read only the package
    tests = pathlib.Path(__file__).resolve().parent
    paths = sorted(tests.glob("test_*.py"))
    modules = {path.stem for path in paths}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if modules & {part for name in names for part in name.split(".")}:
                found.append(f"{path.name}:{node.lineno}")
    assert len(paths) > 10
    assert found == []


def test_package_import_loads_no_submodule_and_no_numpy():
    # callers import the submodules, so the package itself imports nothing
    # and the command can pin BLAS before numpy loads
    src = pathlib.Path(quatmotion.__file__).resolve().parents[1]
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import quatmotion; "
             "print(sorted(m for m in sys.modules "
             "if m == 'numpy' or m.startswith(('numpy.', 'quatmotion.'))))")
    out = subprocess.run([sys.executable, "-c", probe, str(src)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cli_pins_blas_before_numpy_loads():
    # the pins hold only if they run before numpy loads, so in cli.py the
    # three module-level setdefaults precede every import of numpy or of a
    # package module, those inside functions included
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    pins = {}
    for node in tree.body:
        call = node.value if isinstance(node, ast.Expr) else None
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "setdefault"
                and ast.unparse(call.func.value) == "os.environ"):
            pins[ast.literal_eval(call.args[0])] = (node.lineno, ast.literal_eval(call.args[1]))
    assert {var: value for var, (_, value) in pins.items()} == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    last_pin = max(line for line, _ in pins.values())
    loads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["quatmotion" if node.level else node.module]
        else:
            continue
        if {name.split(".")[0] for name in names} & {"numpy", "quatmotion"}:
            loads.append(node.lineno)
    assert len(loads) > 5
    assert min(loads) > last_pin


def test_benchmark_tracer_hooks_resolve():
    # perfbench/tracer.py patches these names from outside the package, so
    # a rename here would only show up as a traced benchmark run that
    # fails; it imports only the standard library and loads by path
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooks = [("autograd", op) for op in tracer.AUTOGRAD_OPS]
    hooks += [(mod, attr) for mod, attr, _ in tracer._FUNCTIONS]
    hooks += [("model", "_encode"), ("model", "_decode"), ("verification", "run")]
    missing = [f"{mod}.{attr}" for mod, attr in hooks
               if not callable(getattr(importlib.import_module(f"quatmotion.{mod}"), attr, None))]
    assert len(hooks) > 30
    assert missing == []


def test_cli_import_leaves_the_suites_unloaded():
    # only `verify` needs the suites and their oracle, so the other
    # commands do not pay for importing them
    src = pathlib.Path(quatmotion.__file__).resolve().parents[1]
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import quatmotion.cli; "
             "print(sorted(m for m in ('quatmotion.verification', 'quatmotion.oracle') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe, str(src)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_features_owns_text_reading():
    # features.read_text reads every text file, so an unreadable or
    # undecodable one is reported, naming it, in one place; no other
    # module opens a file in text mode or decodes bytes itself
    package = pathlib.Path(quatmotion.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "features.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                binary = [m for m in modes if isinstance(m, ast.Constant) and "b" in m.value]
                if not binary:
                    found.append(f"{path.name}:{node.lineno}")
            elif name == "decode":
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(package.glob("*.py"))) > 10
    assert found == []


def test_forked_owns_what_crosses_the_fork():
    # forked.Link maps the shared region, forks, pipes, and reaps or
    # kills the worker, so no other module imports mmap or calls those
    package = pathlib.Path(quatmotion.__file__).resolve().parent
    owned = {"fork", "pipe", "waitpid", "kill"}
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "forked.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                bad = any(alias.name == "mmap" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = node.module == "mmap" or (
                    node.module == "os" and any(a.name in owned for a in node.names))
            elif isinstance(node, ast.Attribute):
                bad = (node.attr in owned and isinstance(node.value, ast.Name)
                       and node.value.id == "os")
            else:
                continue
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(package.glob("*.py"))) > 10
    assert found == []


def test_readme_verify_counts_match_the_suites():
    # the README's "Verification checklist" gives each suite's check count
    # and the `--suite all` total; every group then adds one check_count
    # line of its own
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Verification checklist", 1)[1].split("\n## ", 1)[0]
    counts = {name: int(n) for name, n in re.findall(r"`(\w+)` \((\d+)(?: checks)?\)", section)}
    assert counts == verification.EXPECTED_COUNTS
    totals = re.findall(r"`(\d+)/(\d+) checks passed`", section)
    expected = sum(counts.values()) + len(counts)
    assert totals == [(str(expected), str(expected))]


def test_readme_names_resolve():
    # every backticked `module.name` in the README names something a
    # reader finds in that module, so a rename or deletion moves the docs
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    package = pathlib.Path(quatmotion.__file__).resolve().parent
    modules = {path.stem for path in package.glob("*.py")}
    named = {(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)[`(]", readme)
             if mod in modules}
    missing = [f"{mod}.{name}" for mod, name in sorted(named)
               if not hasattr(importlib.import_module(f"quatmotion.{mod}"), name)]
    assert len(named) > 15
    assert missing == []
