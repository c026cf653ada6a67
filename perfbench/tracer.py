"""Outside-in span tracer for the klocal benchmark.

Run as ``python perfbench/tracer.py TRACE_JSON cli ARGS...`` or
``python perfbench/tracer.py TRACE_JSON script PATH ARGS...``.  It
installs timing wrappers around the public functions of each klocal
layer, runs the entry point in-process exactly as the untraced child
would, and writes the aggregated spans and counters to ``TRACE_JSON``.

Wrappers replace a function at every name a klocal module bound at
import (``klocal.cli.commutator`` is the same object as
``klocal.pauli.commutator``) and replace class methods in place.  Span
names are ``<module>.<stage>`` so that an in-program tracer can adopt
them unchanged.  A span's self time is its duration minus the time of
the spans it called; counter bookkeeping is charged to nobody.
"""

from __future__ import annotations

import functools
import json
import runpy
import sys
import time
from collections import defaultdict
from typing import Any, Callable

Hook = Callable[["Recorder", tuple, dict, Any], None]


class Recorder:
    """In-memory span aggregates (calls, self seconds) and counters."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(int)
        self.levels: list[int] = []
        self._child_time = [0.0]

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        stack = self._child_time
        clock = time.perf_counter
        stats = self.spans[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed - children
                stack[-1] += elapsed
            if hook is not None:
                start = clock()
                hook(self, args, kwargs, result)
                stack[-1] += clock() - start
            return result

        return traced

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": {k: {"calls": v[0], "self_s": v[1]} for k, v in self.spans.items()},
            "counters": dict(self.counters),
            "levels": self.levels,
        }


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "klocal" or mod_name.startswith("klocal."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _count(**counters: Callable[[tuple, dict, Any], float]) -> Hook:
    def hook(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
        for name, fn in counters.items():
            rec.counters[name] += fn(args, kwargs, result)

    return hook


def install(rec: Recorder) -> None:
    """Wrap every measured layer function of an imported klocal."""
    import klocal.cli  # noqa: F401  (binds every module the CLI uses)
    from klocal import concentration, layers, models, oracle, pauli, truncation

    def arg(args: tuple, kwargs: dict, index: int, key: str):
        return args[index] if len(args) > index else kwargs.get(key)

    functions = {
        "pauli.commutator": (pauli, "commutator", _count(**{
            "pauli.commutator.pairs": lambda a, k, r: a[0].n_terms * a[1].n_terms,
            "pauli.commutator.out_terms": lambda a, k, r: r.n_terms,
        })),
        "truncation.hadamard": (truncation, "hadamard_truncate", _count(**{
            "truncation.witness_terms": lambda a, k, r: r.witness.n_terms,
        })),
        "oracle.to_dense": (oracle, "to_dense", _count(**{
            "oracle.to_dense.terms": lambda a, k, r: getattr(a[0], "n_terms", 0),
        })),
        "oracle.operator_norm_exact": (oracle, "operator_norm_exact", None),
        "oracle.heisenberg_evolve": (oracle, "heisenberg_evolve", None),
        "oracle.spectral_norm": (oracle, "spectral_norm", None),
        "oracle.pauli_coefficients": (oracle, "pauli_coefficients", None),
        "oracle.energy_block_norm": (oracle, "energy_block_norm", None),
        "concentration.evolve_state": (concentration, "evolve_product_state", None),
        "concentration.tail_profile": (concentration, "tail_profile", None),
        "concentration.band_matrix": (concentration, "band_matrix", None),
        "concentration.topo_error": (concentration, "topo_error_estimate", None),
        "layers.discretize": (layers, "discretize", _count(**{
            "layers.units": lambda a, k, r: r.total_multiplicity,
        })),
        "layers.pack_layers": (layers, "pack_layers", _count(**{
            "layers.layer_count": lambda a, k, r: r.layer_count,
        })),
        "layers.reconstruct": (layers, "reconstruct", None),
        "models.load_spec": (models, "load_spec", _count(**{
            "models.load_spec.terms": lambda a, k, r: r.n_terms,
        })),
        "models.structural_constants": (models, "structural_constants", None),
        "cli.render": (klocal.cli, "_render", None),
    }
    for name, (module, attr, hook) in functions.items():
        original = getattr(module, attr)
        _replace_everywhere(original, rec.wrap(name, original, hook))

    methods = {
        "pauli.canonical": (pauli.KLocalOperator, "__init__", _count(**{
            "pauli.canonical.terms_in": lambda a, k, r: len(arg(a, k, 2, "terms") or ()),
        })),
        "pauli.prune": (pauli.KLocalOperator, "prune", _count(**{
            "pauli.prune.dropped_terms": lambda a, k, r: a[0].n_terms - r[0].n_terms,
            "pauli.prune.dropped_mass": lambda a, k, r: r[1],
        })),
        "oracle.eigh": (oracle.EigenSystem, "__init__", None),
        "concentration.observable": (concentration.ExtensiveObservable, "__init__", None),
        "layers.verify": (layers.LayerDecomposition, "verify", None),
    }
    for name, (cls, attr, hook) in methods.items():
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr), hook))

    # Nesting levels are counted where hadamard_truncate consumes them.
    levels = truncation.nested_commutator_levels

    @functools.wraps(levels)
    def counted_levels(*args, **kwargs):
        for item in levels(*args, **kwargs):
            if item[0] > 0:
                rec.levels.append(item[1].n_terms)
            yield item

    truncation.nested_commutator_levels = counted_levels


def main(argv: list[str]) -> int:
    trace_path, kind, *rest = argv
    rec = Recorder()
    install(rec)
    if kind == "cli":
        import klocal.cli

        code = klocal.cli.main(rest)
    else:
        sys.argv = rest
        try:
            runpy.run_path(rest[0], run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(rec.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
