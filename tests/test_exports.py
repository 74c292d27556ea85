from __future__ import annotations

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
    operator = sys.modules["willis_homog.spectral"].BlochOperator
    assert isinstance(operator.__dict__.get("eigenvalues"), functools.cached_property)
