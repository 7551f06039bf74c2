"""In-memory tracer for the traced benchmark run.

``Tracer.install`` rebinds, for every layer module of the library, the
public functions at the names where calling modules look them up
(``quivermoduli.stratum.square``, ``quivermoduli.linalg.matvec``, the
package namespace, the CLI command table) and the public methods and
properties of the layer's classes (``RowSpace.add``,
``LatticeVector.__post_init__``, ...).  ``uninstall`` restores every
original binding, so untraced passes run the library untouched.

Every wrapped call is a frame: its duration, minus the part covered by
the wrapped calls below it, is the self time of the layer that defines
the callee.  Call counts are kept per function.  Public module-level
functions outside ``CHEAP`` also record a span (name, start, end,
parent span, operation id); cheap calls such as ``pairing`` are timed
and counted without a span record.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "lattice", "linalg", "stability", "decomposition", "quiver",
    "representation", "walls", "stratum", "scenario", "cli",
)
PACKAGE = "quivermoduli"

# Functions timed and counted without a span record: they run millions
# of times and a span each would dominate memory.
CHEAP = {
    "lattice.pairing", "lattice.square", "lattice.classify", "lattice.iter_box",
    "linalg.vector", "linalg.matrix", "linalg.zeros", "linalg.identity",
    "linalg.shape", "linalg.add", "linalg.sub", "linalg.scale", "linalg.matmul",
    "linalg.matvec", "linalg.transpose", "linalg.trace", "linalg.is_zero_matrix",
    "linalg.is_zero_vector", "quiver.quadratic_form", "quiver.is_positive_root",
    "quiver.expected_dimension", "quiver.num_parameters",
    "representation.theta_slope", "scenario.frac_to_str", "scenario.gauss_to_obj",
}
# Dunder methods that carry layer work (construction and arithmetic).
DUNDERS = {
    "__post_init__", "__call__", "__add__", "__sub__", "__mul__", "__rmul__",
    "__truediv__", "__neg__",
}


def library_modules(package):
    """Layer name -> module, plus ``PACKAGE`` -> the package namespace."""
    modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
    modules[PACKAGE] = package
    return modules


class Tracer:
    def __init__(self):
        self.op_id = None
        self.stack = []          # [layer, start_ns, child_ns, span_index]
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []          # [name, start_ns, end_ns, parent, op_id]
        self.simple_rep_inputs = []
        self._restore = []

    # -- frames --------------------------------------------------------

    def _enter(self, layer, name, span):
        index = None
        if span:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            index = len(self.spans)
            self.spans.append([name, 0, 0, parent, self.op_id])
        start = time.perf_counter_ns()
        if index is not None:
            self.spans[index][1] = start
        self.stack.append([layer, start, 0, index])

    def _leave(self, name):
        end = time.perf_counter_ns()
        layer, start, child, index = self.stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child
        self.incl_ns[name] += duration
        if self.stack:
            self.stack[-1][2] += duration
        if index is not None:
            self.spans[index][2] = end

    def _wrap(self, fn, layer, name, span, binding):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            cells = f"{binding}.{name}.yielded"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    tracer._enter(layer, name, False)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(name)
                    tracer.counts[cells] += 1
                    yield item

            return gen_wrapper
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            tracer._enter(layer, name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def install(self, modules):
        """Wrap the library; ``modules`` maps layer name -> module and
        the key ``PACKAGE`` -> the package itself."""
        layer_of = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
        wrapped = {}

        def wrapper_for(fn, binding):
            layer = layer_of[fn.__module__]
            name = f"{layer}.{fn.__name__}"
            key = (fn, binding)
            if key not in wrapped:
                wrapped[key] = self._wrap(fn, layer, name, name not in CHEAP, binding)
            return wrapped[key]

        for binding, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ in layer_of:
                    self._set(module, attr, wrapper_for(obj, binding))
                elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                      and obj.__module__ in layer_of
                      and not issubclass(obj, (BaseException, tuple))
                      and not hasattr(obj, "_member_map_")):
                    self._wrap_class(obj, layer_of[obj.__module__])
        cli = modules["cli"]
        table = dict(cli.COMMANDS)
        for command, (handler, positionals, flags) in table.items():
            cli.COMMANDS[command] = (
                self._wrap(handler, "cli", "cli.handler", True, "cli"), positionals, flags
            )
        self._restore.append(lambda: cli.COMMANDS.update(table))

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, property) and obj.fget is not None:
                self._set(cls, attr, property(self._wrap(obj.fget, layer, name, False, layer)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(obj, layer, name, False, layer))

    def _set(self, owner, attr, value):
        original = vars(owner)[attr]
        self._restore.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    # -- results -------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _count_len(key):
    def hook(tracer, args, result):
        tracer.counts[key] += len(result)
    return hook


def _roots_hook(tracer, args, result):
    tracer.counts["quiver.roots_enumerated"] += len(result)
    box = 1
    for b in args[1]:
        box *= int(b) + 1
    tracer.counts["quiver.root_box_cells"] += box


def _simple_hook(tracer, args, result):
    quiver, n = args[0], tuple(int(b) for b in args[1])
    tracer.simple_rep_inputs.append((quiver.loops, quiver.arrows, n))


def _rowspace_add_hook(tracer, args, result):
    tracer.counts["linalg.rowspace_grew"] += bool(result)


def _certificate_hook(tracer, args, result):
    if result.certificate is not None:
        tracer.counts["representation.budget_used"] += result.certificate.budget_used
        tracer.counts["representation.seeds_tried"] += sum(
            count for _, count in result.certificate.seeds_tried
        )


HOOKS = {
    "quiver.enumerate_positive_roots": _roots_hook,
    "quiver.simple_rep_exists": _simple_hook,
    "walls.enumerate_walls": _count_len("walls.walls_found"),
    "linalg.RowSpace.add": _rowspace_add_hook,
    "representation.destabilizer_search": _certificate_hook,
}
