from __future__ import annotations

import importlib.util
import re
from pathlib import Path

PATH = Path(__file__).parents[1] / "tools" / "layer_times.py"
SPEC = importlib.util.spec_from_file_location("layer_times", PATH)
layer_times = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(layer_times)

LAYERS = [
    "dispersion_function",
    "exact responses",
    "exact Z",
    "spectral assemble N=8",
    "spectral solve N=8",
    "spectral assemble N=32",
    "spectral solve N=32",
    "homogenize exact",
    "homogenize spectral N=32",
    "branch root exact",
    "branch root spectral N=8",
    "branch root spectral N=32",
]


def test_layer_times_prints_one_positive_line_per_layer(capsys) -> None:
    assert layer_times.main(["--rounds", "2", "--repeats", "1"]) == 0
    header, columns, *rows = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"cores \d+, OPENBLAS_NUM_THREADS=\S+, numpy \S+, python \S+; .*", header)
    assert columns.split() == ["cell", "layer", "median", "q1", "q3"]
    seen = []
    for row in rows:
        cell, rest = row.split(maxsplit=1)
        layer, median, q1, q3 = re.fullmatch(r"(.+?)\s+(\S+)\s+(\S+)\s+(\S+)", rest).groups()
        assert 0.0 < float(q1) <= float(median) <= float(q3)
        seen.append((cell, layer))
    assert seen == [(cell, layer) for cell in ("fig2", "six-phase") for layer in LAYERS]
