"""Per-layer tracing of one `mubforge` CLI process, from outside the package.

Run as

    python perfbench/tracer.py STATS.json SUBCOMMAND [ARGS...]

with `src` on PYTHONPATH.  It behaves like `python -m mubforge.cli
SUBCOMMAND ARGS...` (same output, same exit code), but first wraps the
public functions listed in LAYERS, replacing each name in the namespace of
every mubforge module that holds it (`construct.char_poly`,
`cli.verify_mub`, ...), and writes call counts, self times and computed
counters to STATS.json when the command ends.  Nothing under `src/` is
edited.  A listed function that no longer exists is reported as absent.

Self time is a wrapped call's duration minus the time spent in wrapped
calls it made.  The span stack is per process and not thread-safe, so
traced runs leave MUBFORGE_THREADS unset.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import inspect
import json
import sys
import time

# (layer, module, attribute path inside the module).  The layer name is
# `<module>.<function>`; its metrics are `<layer>.calls` and `<layer>.self_s`.
LAYERS = (
    ("cli.main", "cli", "main"),
    ("poly2.fibonacci_index", "poly2", "fibonacci_index"),
    ("construct.StabilizerSpec.validate", "construct", "StabilizerSpec.validate"),
    ("poly2.stabilizer_char_polys", "poly2", "stabilizer_char_polys"),
    ("gf2.char_poly", "gf2", "char_poly"),
    ("backend.scan_symmetric", "backend", "scan_symmetric"),
    ("backend.decode_symmetric", "backend", "decode_symmetric"),
    ("construct.StabilizerSpec.to_json", "construct", "StabilizerSpec.to_json"),
    ("construct.search_specs", "construct", "search_specs"),
    ("construct.search_B", "construct", "search_B"),
    ("construct.is_polynomial_in", "construct", "is_polynomial_in"),
    ("construct.find_addend", "construct", "find_addend"),
    ("construct.build_stabilizer", "construct", "build_stabilizer"),
    ("construct.cyclicity_check", "construct", "cyclicity_check"),
    ("construct.generators", "construct", "generators"),
    ("construct.bandyopadhyay_check", "construct", "bandyopadhyay_check"),
    ("entangle.entanglement_vector", "entangle", "entanglement_vector"),
    ("pauli.mub_from_generators", "pauli", "mub_from_generators"),
    ("pauli.verify_mub", "pauli", "verify_mub"),
    ("equiv.equivalence_map", "equiv", "equivalence_map"),
)

# Counters derived from the arguments and results of one layer's calls.
# They are computed from the call, not measured inside the program, and
# are reported as computed.  The dense flop count models the current
# projector eigenbasis: per class, d sign patterns times m products of
# d x d complex matrices, at 8 real flops per complex multiply-add.
COMPUTED = {
    "poly2.admissible_polys": "poly2.stabilizer_char_polys",
    "backend.candidates": "backend.scan_symmetric",
    "backend.hits": "backend.scan_symmetric",
    "construct.class_labels": "construct.bandyopadhyay_check",
    "pauli.dense_flops": "pauli.mub_from_generators",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count(layer, args, kwargs, result):
    """Computed counter increments for one finished call of `layer`."""
    if layer == "poly2.stabilizer_char_polys":
        return {"poly2.admissible_polys": len(result)}
    if layer == "backend.scan_symmetric":
        start = _arg(args, kwargs, 2, "start")
        stop = _arg(args, kwargs, 3, "stop")
        return {"backend.candidates": stop - start, "backend.hits": len(result)}
    if layer == "construct.bandyopadhyay_check":
        d = 1 << _arg(args, kwargs, 0, "gens").m
        return {"construct.class_labels": (d + 1) * (d - 1)}
    if layer == "pauli.mub_from_generators":
        m = _arg(args, kwargs, 0, "gens").m
        d = 1 << m
        return {"pauli.dense_flops": 8 * m * d**4 * (d + 1)}
    return {}


class Tracer:
    """Call counts and self times of wrapped functions, kept in memory."""

    def __init__(self):
        self.layers: dict[str, dict] = {}
        self.counters = {name: 0 for name in COMPUTED}
        self.counter_errors: dict[str, str] = {}
        self._children = [0.0]  # per open span: time spent in wrapped callees

    def _enter(self):
        self._children.append(0.0)
        return time.perf_counter()

    def _leave(self, stats, t0):
        dt = time.perf_counter() - t0
        child = self._children.pop()
        self._children[-1] += dt
        stats["total_s"] += dt
        stats["self_s"] += dt - child

    def _record(self, layer, args, kwargs, result):
        try:
            for name, inc in _count(layer, args, kwargs, result).items():
                self.counters[name] += inc
        except Exception as exc:  # a changed signature must not break the traced command
            for name, source in COMPUTED.items():
                if source == layer:
                    self.counter_errors[name] = f"{type(exc).__name__}: {exc}"

    def wrap(self, layer, fn):
        stats = self.layers[layer] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # Time every resumption, so lazily consumed streams are charged.
            def wrapper(*args, **kwargs):
                stats["calls"] += 1
                t0 = tracer._enter()
                try:
                    it = fn(*args, **kwargs)
                finally:
                    tracer._leave(stats, t0)
                while True:
                    t0 = tracer._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(stats, t0)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                stats["calls"] += 1
                t0 = tracer._enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._leave(stats, t0)
                tracer._record(layer, args, kwargs, result)
                return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Wrap every layer that exists; mark the others absent."""
        for layer, module_name, path in LAYERS:
            try:
                module = importlib.import_module(f"mubforge.{module_name}")
                owner = module
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.layers[layer] = {"absent": f"{type(exc).__name__}: {exc}"}
                continue
            if not callable(fn):
                self.layers[layer] = {"absent": f"{path} is not a plain function"}
                continue
            wrapper = self.wrap(layer, fn)
            if parents:
                setattr(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "mubforge" or name.startswith("mubforge.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def summary(self, imports):
        counters = {}
        for name, source in COMPUTED.items():
            if "absent" in self.layers.get(source, {}):
                counters[name] = {"absent": f"source layer {source} is absent"}
            elif name in self.counter_errors:
                counters[name] = {"absent": self.counter_errors[name]}
            else:
                counters[name] = {"value": self.counters[name], "computed": True}
        return {"imports": imports, "layers": self.layers, "counters": counters}


def _time_first_sympy_import(imports):
    """Hook __import__ so the first (lazy) import of sympy is timed."""
    original = builtins.__import__

    def hooked(name, *args, **kwargs):
        if (name == "sympy" or name.startswith("sympy.")) and "sympy" not in sys.modules:
            t0 = time.perf_counter()
            try:
                return original(name, *args, **kwargs)
            finally:
                imports["sympy_s"] = time.perf_counter() - t0
        return original(name, *args, **kwargs)

    builtins.__import__ = hooked


def main(argv):
    stats_path, cli_args = argv[0], argv[1:]
    imports = {"mubforge_s": None, "sympy_s": None}
    _time_first_sympy_import(imports)
    t0 = time.perf_counter()
    import mubforge  # noqa: F401

    imports["mubforge_s"] = time.perf_counter() - t0
    cli = importlib.import_module("mubforge.cli")
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(imports), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
