"""Per-layer attribution: wrappers installed at run time around starform's
public functions, then removed.  starform's files are not changed.

A ``timed`` function records its calls and its self time (its duration minus
the time spent in nested timed calls); a ``calls`` function records calls
only, because it is called too often for a clock read per call.  Modules
import functions by name, so every binding of a wrapped object (module
globals and class attributes, aliases such as ``__rmul__`` included) is
replaced, not only the defining one.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Dict, List, Tuple

# layer -> [(module, attribute path, metric name, mode)]
SPANS: Dict[str, List[Tuple[str, str, str, str]]] = {
    "tower": [
        ("tower", "Tower.factor_monic", "factor_monic", "timed"),
        ("tower", "Tower.find_roots", "find_roots", "timed"),
        ("tower", "Tower.find_one_root", "find_one_root", "timed"),
        ("tower", "Tower.sqrt", "sqrt", "timed"),
        ("tower", "Tower.poly_mul_flat", "poly_mul_flat", "timed"),
        ("tower", "Tower.grow", "grow", "calls"),
        ("tower", "Tower.grow_quadratic", "grow_quadratic", "calls"),
        ("tower", "Tower.mul", "mul", "calls"),
        ("tower", "Tower.add", "add", "calls"),
        ("tower", "Tower.inv", "inv", "calls"),
    ],
    "starpoly": [
        ("starpoly", "StarPoly.__mul__", "mul", "timed"),
        ("starpoly", "StarPoly.__divmod__", "divmod", "timed"),
        ("starpoly", "gcd", "gcd", "timed"),
        ("starpoly", "gcd_bezout", "gcd_bezout", "timed"),
        ("starpoly", "solve_norm_equation", "solve_norm_equation", "timed"),
        ("starpoly", "norm_factor", "norm_factor", "timed"),
        ("starpoly", "norm_factor_avoiding", "norm_factor_avoiding", "timed"),
        ("starpoly", "parse_poly", "parse_poly", "timed"),
        ("starpoly", "format_poly", "format_poly", "timed"),
    ],
    "polymat": [
        ("polymat", "smith_form", "smith_form", "timed"),
        ("polymat", "invariant_factors", "invariant_factors", "timed"),
        ("polymat", "PolyMatrix.__matmul__", "matmul", "timed"),
        ("polymat", "Certificate.verify", "verify", "timed"),
        ("polymat", "kernel_split", "kernel_split", "timed"),
        ("polymat", "determinant", "determinant", "timed"),
        ("polymat", "inverse", "inverse", "timed"),
        ("polymat", "unimodular_completion", "unimodular_completion", "timed"),
    ],
    "congruence": [
        ("congruence", "represent_one", "represent_one", "timed"),
        ("congruence", "split_one", "split_one", "timed"),
        ("congruence", "isotropic_vector", "isotropic_vector", "timed"),
        ("congruence", "sk_split", "sk_split", "timed"),
        ("congruence", "block_swap", "block_swap", "timed"),
        ("congruence", "compress_form", "compress_form", "timed"),
    ],
    "canonical": [
        ("canonical", "canonicalize", "canonicalize", "timed"),
        ("canonical", "are_congruent", "are_congruent", "timed"),
        ("canonical", "assemble_canonical", "assemble_canonical", "timed"),
    ],
    "cli": [
        ("cli", "main", "main", "timed"),
        ("cli", "parse_problem", "parse_problem", "timed"),
        ("cli", "format_problem", "format_problem", "timed"),
        ("cli", "cmd_congruent", "cmd_congruent", "timed"),
        ("cli", "cmd_verify", "cmd_verify", "timed"),
    ],
}


def metric_names() -> List[str]:
    """Every per-layer metric the traced run reports, in order."""
    names = []
    for layer, spans in SPANS.items():
        for _, _, fn, mode in spans:
            names.append(f"{layer}.{fn}.calls")
            if mode == "timed":
                names.append(f"{layer}.{fn}.self_s")
        names.append(f"{layer}.self_s")
    return names


class Tracer:
    """Counters and self times for one traced pass at a time."""

    def __init__(self):
        self.calls: Dict[str, List[int]] = {}
        self.self_s: Dict[str, List[float]] = {}
        self.grown: List = []       # towers that grew during the current op
        self.grown_ops = 0          # operations whose tower grew
        self.field_degree_max = 1   # largest F_p-dimension reached
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        for cell in self.calls.values():
            cell[0] = 0
        for cell in self.self_s.values():
            cell[0] = 0.0

    def end_op(self) -> None:
        if self.grown:
            self.grown_ops += 1
            for tower in self.grown:
                dim = tower.coord_size(tower.num_levels())
                self.field_degree_max = max(self.field_degree_max, dim)
            self.grown.clear()

    # ---- wrappers ----

    def _timed(self, key: str, fn):
        calls = self.calls.setdefault(key, [0])
        spent = self.self_s.setdefault(key, [0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                spent[0] += dt - stack.pop()
                calls[0] += 1
                if stack:
                    stack[-1] += dt
        return wrapper

    def _counted(self, key: str, fn):
        calls = self.calls.setdefault(key, [0])

        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _growth(self, key: str, fn):
        calls = self.calls.setdefault(key, [0])
        grown = self.grown

        def wrapper(tower, *args, **kwargs):
            calls[0] += 1
            grown.append(tower)
            return fn(tower, *args, **kwargs)
        return wrapper

    # ---- install / remove ----

    def install(self) -> None:
        for module in {spans[0][0] for spans in SPANS.values()}:
            importlib.import_module(f"starform.{module}")
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "starform" or name.startswith("starform."))]
        for layer, spans in SPANS.items():
            for module, path, fn_name, mode in spans:
                owner = importlib.import_module(f"starform.{module}")
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                orig = owner.__dict__[parts[-1]]
                key = f"{layer}.{fn_name}"
                if fn_name in ("grow", "grow_quadratic"):
                    wrapped = self._growth(key, orig)
                elif mode == "timed":
                    wrapped = self._timed(key, orig)
                else:
                    wrapped = self._counted(key, orig)
                holders = mods if len(parts) == 1 else [owner]
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is orig:
                            self._patches.append((holder, attr, orig))
                            setattr(holder, attr, wrapped)

    def remove(self) -> None:
        while self._patches:
            holder, attr, orig = self._patches.pop()
            setattr(holder, attr, orig)

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for layer, spans in SPANS.items():
            total = 0.0
            for _, _, fn, mode in spans:
                key = f"{layer}.{fn}"
                out[f"{key}.calls"] = self.calls[key][0]
                if mode == "timed":
                    out[f"{key}.self_s"] = self.self_s[key][0]
                    total += self.self_s[key][0]
            out[f"{layer}.self_s"] = total
        return out
