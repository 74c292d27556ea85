"""In-memory span tracer wrapped around the package's public functions.

Modules bind each other's functions with ``from .x import y``, so one
function can sit under several names (``dispersion.effective_impedance``
and ``cli.effective_impedance`` are separate bindings of
``willis.effective_impedance``).  ``Tracer.install`` replaces the function
object at every binding site it finds in the loaded ``willis_homog``
modules, plus the ``cli._COMMANDS`` table and the
``BlochOperator.eigenvalues`` cached property.  No file under ``src/``
changes.

A span is ``[name, start, end, parent, error, attrs]`` with times from
``time.perf_counter``.  Spans stay in memory until ``write`` dumps them.
``summarize`` turns them into additive totals (calls, self time and the
counters behind the ratios); ``per_layer`` turns merged totals into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from functools import cached_property
from pathlib import Path

#: span names that get ``<name>.calls`` and ``<name>.self_s`` metrics
SPAN_NAMES = (
    "material.fourier_coefficients",
    "exact.cell_solve",
    "exact.dispersion_function",
    "spectral.assemble",
    "spectral.eigenvalues",
    "spectral.resolvent_solve",
    "cell_functions.solve",
    "willis.effective_impedance",
    "willis.dynamic_identity_residuals",
    "asymptotics.homogenize_exact",
    "asymptotics.homogenize_spectral",
    "asymptotics.polynomials",
    "dispersion.exact_branch",
    "dispersion.willis_exact_root",
    "dispersion.spectral_acoustic_branch",
    "cli.coeffs",
    "cli.dispersion",
    "cli.modulation-map",
    "cli.impedance-map",
    "cli.verify",
    "cli.build_verification_report",
)

_POLYNOMIALS = (
    "two_scale_impedance",
    "modulation_m2",
    "dipole_mean_n2",
    "willis_impedance_order2",
    "two_scale_root",
)

_CLI_COMMANDS = {
    "cmd_coeffs": "cli.coeffs",
    "cmd_dispersion": "cli.dispersion",
    "cmd_modulation_map": "cli.modulation-map",
    "cmd_impedance_map": "cli.impedance-map",
    "cmd_verify": "cli.verify",
}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _method_attrs(index):
    return lambda args, kwargs: {"method": _arg(args, kwargs, index, "method", "exact")}


def _targets():
    """(module, attribute, span name, describe, on_result) for every wrapped function.

    ``describe(args, kwargs)`` returns the span's attributes and may rename
    the span through an ``"as"`` key; ``on_result(result, attrs)`` adds
    attributes read off the return value.
    """
    out = [
        ("material", "fourier_coefficients", "material.fourier_coefficients", None, None),
        ("exact", "dispersion_function", "exact.dispersion_function", None, None),
        ("spectral", "assemble", "spectral.assemble", None, None),
        ("spectral", "solve_eigensystem", "spectral.eigenvalues", None, None),
        (
            "spectral",
            "resolvent_solve",
            "spectral.resolvent_solve",
            lambda a, k: {"dofs": _arg(a, k, 0, "operator").size},
            None,
        ),
        ("willis", "effective_impedance", "willis.effective_impedance", _method_attrs(3), None),
        (
            "willis",
            "dynamic_identity_residuals",
            "willis.dynamic_identity_residuals",
            _method_attrs(3),
            lambda res, attrs: attrs.update(max_residual=max(res.values())),
        ),
        (
            "asymptotics",
            "homogenize",
            "asymptotics.homogenize",
            lambda a, k: {"as": "asymptotics.homogenize_" + _arg(a, k, 1, "method", "exact")},
            None,
        ),
        (
            "dispersion",
            "exact_branch",
            "dispersion.exact_branch",
            lambda a, k: {"n_k": len(_as_list(_arg(a, k, 1, "k_grid")))},
            None,
        ),
        ("dispersion", "willis_exact_root", "dispersion.willis_exact_root", None, None),
        (
            "dispersion",
            "spectral_acoustic_branch",
            "dispersion.spectral_acoustic_branch",
            None,
            None,
        ),
        ("cli", "build_verification_report", "cli.build_verification_report", None, None),
    ]
    for fn in ("solve_monopole_exact", "solve_dipole_exact", "solve_static_dipole_exact"):
        out.append(("exact", fn, "exact.cell_solve", None, None))
    for fn in ("solve_w", "solve_v", "solve_zeta", "solve_w_exact", "solve_v_exact", "solve_zeta_exact"):
        out.append(("cell_functions", fn, "cell_functions.solve", None, None))
    for fn in _POLYNOMIALS:
        out.append(("asymptotics", fn, "asymptotics.polynomials", None, None))
    for fn, name in _CLI_COMMANDS.items():
        out.append(("cli", fn, name, None, None))
    return out


def _as_list(value):
    try:
        return list(value)
    except TypeError:
        return [value]


class Tracer:
    """Collects spans from wrapped functions; one instance per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, attrs: dict | None) -> int:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's work belongs to the span that submitted it
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        with self._lock:
            self.spans.append([name, time.perf_counter(), None, parent, None, attrs])
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def wrap(self, fn, name, describe=None, on_result=None):
        """Return ``fn`` wrapped so that each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = describe(args, kwargs) if describe else None
            span_name = attrs.pop("as", name) if attrs else name
            idx = self._open(span_name, attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx][4] = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result, self.spans[idx][5])
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def _replace(self, owner, attr, value, is_dict=False):
        old = owner[attr] if is_dict else getattr(owner, attr)
        self._restore.append((owner, attr, old, is_dict))
        if is_dict:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every target at every binding site in the loaded package."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("willis_homog") and m]
        for mod_name, attr, name, describe, on_result in _targets():
            home = sys.modules.get(f"willis_homog.{mod_name}")
            if home is None:
                continue
            orig = getattr(home, attr)
            traced = self.wrap(orig, name, describe, on_result)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, binding, traced)
                    elif isinstance(value, dict) and not binding.startswith("__"):
                        for key, item in list(value.items()):
                            if item is orig:
                                self._replace(value, key, traced, is_dict=True)
        spectral = sys.modules.get("willis_homog.spectral")
        if spectral is not None:
            op = spectral.BlochOperator
            prop = op.__dict__["eigenvalues"]
            new = cached_property(self.wrap(prop.func, "spectral.eigenvalues"))
            new.__set_name__(op, "eigenvalues")
            self._replace(op, "eigenvalues", new)
        return self

    def uninstall(self) -> None:
        """Put back every original binding."""
        for owner, attr, old, is_dict in reversed(self._restore):
            if is_dict:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Dump the spans as JSON (name, start, end, parent, error, attrs)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, separators=(",", ":")), encoding="utf-8")


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, s[1]), min(b, s[2])
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s[2] - s[1]) - covered)
    return out


def _ancestor(spans, idx, name):
    """Index of the nearest enclosing span called ``name``, or None."""
    parent = spans[idx][3]
    while parent is not None and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent


def _is_exact_z(span) -> bool:
    """A completed exact-route effective_impedance span."""
    return span[4] is None and span[5]["method"] == "exact"


def summarize(spans: list[list]) -> dict:
    """Additive totals of one process's spans; merge several with ``merge``."""
    totals = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
    counters = {
        "resonance_errors": 0,
        "dofs_solved": 0,
        "identity_residual_max": 0.0,
        "solves_in_z": 0,
        "exact_z": 0,
        "z_in_root": 0,
        "roots": 0,
        "df_in_branch": 0,
        "branch_k": 0,
    }
    for idx, (s, self_s) in enumerate(zip(spans, self_times(spans))):
        name, error, attrs = s[0], s[4], s[5] or {}
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        if name == "exact.cell_solve":
            counters["resonance_errors"] += error == "ResonanceError"
            z = _ancestor(spans, idx, "willis.effective_impedance")
            counters["solves_in_z"] += z is not None and _is_exact_z(spans[z])
        elif name == "spectral.resolvent_solve":
            counters["dofs_solved"] += attrs["dofs"]
        elif name == "willis.dynamic_identity_residuals" and attrs["method"] == "exact" and error is None:
            counters["identity_residual_max"] = max(
                counters["identity_residual_max"], float(attrs["max_residual"])
            )
        elif name == "willis.effective_impedance":
            counters["exact_z"] += _is_exact_z(s)
            counters["z_in_root"] += _ancestor(spans, idx, "dispersion.willis_exact_root") is not None
        elif name == "dispersion.willis_exact_root":
            counters["roots"] += error is None
        elif name == "exact.dispersion_function":
            counters["df_in_branch"] += _ancestor(spans, idx, "dispersion.exact_branch") is not None
        elif name == "dispersion.exact_branch":
            counters["branch_k"] += attrs["n_k"]
    return {"spans": totals, "counters": counters}


def merge(summaries: list[dict]) -> dict:
    """Sum several processes' summaries (maximum for the residual guard)."""
    out = summarize([])
    for part in summaries:
        for name, entry in part["spans"].items():
            tgt = out["spans"].setdefault(name, {"calls": 0, "self_s": 0.0})
            tgt["calls"] += entry["calls"]
            tgt["self_s"] += entry["self_s"]
        for key, value in part["counters"].items():
            if key == "identity_residual_max":
                out["counters"][key] = max(out["counters"][key], value)
            else:
                out["counters"][key] += value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(summary: dict, extra: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``extra`` carries what spans do not: ``bytes_written``, ``n_final``
    (list of ladder end orders), ``ladders_capped``, ``import_s`` and
    ``overhead_ratio``.
    """
    spans, c = summary["spans"], summary["counters"]
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (spans[name]["calls"], "count")
        out[f"{name}.self_s"] = (spans[name]["self_s"], "s")
    n_final = extra.get("n_final") or [0]
    out.update(
        {
            "exact.resonance_errors": (c["resonance_errors"], "count"),
            "spectral.dofs_solved": (c["dofs_solved"], "count"),
            "willis.identity_residual_max": (c["identity_residual_max"], "rel"),
            "cli.bytes_written": (extra.get("bytes_written", 0), "bytes"),
            "exact.solves_per_z": (_ratio(c["solves_in_z"], c["exact_z"]), "ratio"),
            "dispersion.z_evals_per_root": (_ratio(c["z_in_root"], c["roots"]), "ratio"),
            "dispersion.df_evals_per_k": (_ratio(c["df_in_branch"], c["branch_k"]), "ratio"),
            "spectral.eig_per_solve": (
                _ratio(spans["spectral.eigenvalues"]["calls"], spans["spectral.resolvent_solve"]["calls"]),
                "ratio",
            ),
            "spectral.n_final_p50": (statistics.median(n_final), "count"),
            "spectral.n_final_max": (max(n_final), "count"),
            "spectral.ladders_capped": (extra.get("ladders_capped", 0), "count"),
        }
    )
    for family in ("numpy", "scipy", "willis_homog"):
        out[f"setup.import_s.{family}"] = (extra["import_s"][family], "s")
    out["trace.overhead_ratio"] = (extra["overhead_ratio"], "ratio")
    return out
