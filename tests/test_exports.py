from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import willis_homog

MODULES = ["willis_homog"] + [
    f"willis_homog.{m.name}" for m in pkgutil.iter_modules(willis_homog.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name: str) -> None:
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


def test_cli_imports_no_third_party_module_but_numpy() -> None:
    code = (
        "import sys; import numpy; before = set(sys.modules); import willis_homog.cli; "
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before}))); "
        "print('numpy.polynomial' in sys.modules)"
    )
    src = str(Path(willis_homog.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    roots, polynomial_loaded = out.stdout.splitlines()
    added = set(roots.split()) - set(sys.stdlib_module_names) - {"numpy", "willis_homog"}
    assert not added, f"import willis_homog.cli loads {sorted(added)}"
    assert polynomial_loaded == "False", "import willis_homog.cli loads numpy.polynomial"


def test_cli_imports_no_private_name_from_the_package() -> None:
    # the CLI reads the library's rules (as willis.require_identity_point), it does not
    # copy them; its own drawing module ._svg is private, the names it takes are not
    tree = ast.parse((Path(willis_homog.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("willis_homog"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not private, f"willis_homog/cli.py imports private names {private}"


def test_benchmark_tracer_targets_exist() -> None:
    # perfbench/tracer.py wraps these names by getattr; a rename would break
    # the traced benchmark run without failing anything else
    import willis_homog.cli  # noqa: F401  (loads every module the tracer patches)

    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer._targets()
        if not hasattr(sys.modules.get(f"willis_homog.{module}"), attr)
    ]
    assert not missing, f"tracer targets missing from the package: {missing}"
    # perfbench/selftest.py checks that the tracer wraps this binding site
    assert sys.modules["willis_homog.cli"].effective_impedance is sys.modules["willis_homog.willis"].effective_impedance
    # the tracer wraps verify's report as cli.build_verification_report
    assert sys.modules["willis_homog.cli"].build_verification_report is sys.modules["willis_homog.verify"].build_verification_report
    operator = sys.modules["willis_homog.spectral"].BlochOperator
    assert isinstance(operator.__dict__.get("eigenvalues"), functools.cached_property)


def test_readme_library_example_runs(capsys) -> None:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    # the example prints |z2 - Z| at (k, omega) = (0.01, 0.003)
    assert float(capsys.readouterr().out) < 1e-15
