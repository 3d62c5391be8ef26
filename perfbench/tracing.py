"""Span tracing around the public functions of each egperm module.

The tracer replaces every public module-level function of a layer with a
wrapper, at every name an ``egperm`` module binds it to (``sequences``
imports ``gperm_cofactor`` by name, so ``egperm.sequences.gperm_cofactor``
is patched as well as ``egperm.cofactor.gperm_cofactor``).  Nothing under
``src/`` changes; ``uninstall`` puts the original objects back.

Spans live in memory as lists ``[id, parent, request, layer, name, start,
end]`` and are written out once, at the end of the run.  A layer's self
time is its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("catalog", "graphs", "numtheory", "sequences", "cofactor",
          "permanent", "expressions", "modform", "pointcount", "transforms")

# bytes per lattice entry, and lattice-sized int64 arrays block_perm_mod keeps
# alive at once besides one per base row: the running term and the sign
_LATTICE_ITEM = 8
_LATTICE_EXTRA_ARRAYS = 2


def _public_functions(module) -> dict[str, object]:
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Records one span per call into a layer's public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = "setup"
        self.counters: Counter = Counter()
        self.lattice_bytes_max = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[tuple[str, str], object] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {layer: sys.modules[f"egperm.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module).items():
                self._originals[(layer, name)] = fn
                wrappers[id(fn)] = self._wrap(layer, name, fn)
        bound = [m for n, m in sys.modules.items()
                 if n == "egperm" or n.startswith("egperm.")]
        for module in bound:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def original(self, layer: str, name: str):
        return self._originals[(layer, name)]

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = getattr(self, f"_hook_{layer}_{name}", None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, self.request, layer, name,
                    clock(), None]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(args, kwargs, exc)
                raise
            finally:
                span[6] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counts computed from the arguments at the layer boundary ---------

    def _hook_permanent_block_perm_mod(self, args, kwargs, exc) -> None:
        from egperm.permanent import DimensionCapError
        if isinstance(exc, DimensionCapError):
            self.counters["permanent.cap_refused"] += 1
            return
        if exc is not None:
            return
        base, _row_reps, col_reps = args[0], args[1], args[2]
        rows, cols = len(base), (len(base[0]) if len(base) else 0)
        points = (col_reps + 1) ** cols
        self.counters["permanent.lattice_points"] += points
        nbytes = _LATTICE_ITEM * points * (rows + _LATTICE_EXTRA_ARRAYS)
        self.lattice_bytes_max = max(self.lattice_bytes_max, nbytes)

    def _hook_pointcount_point_count(self, args, kwargs, exc) -> None:
        if exc is not None:
            return
        g, p = args[0], args[1]
        spec = self.original("graphs", "block_spec")(g)
        self.counters["pointcount.points"] += p ** spec.L

    # -- reduction ----------------------------------------------------------

    def summarize(self, request_filter) -> dict:
        """Per-layer totals over the spans whose request passes the filter."""
        chosen = [s for s in self.spans if request_filter(s[2])]
        by_id = {s[0]: s for s in chosen}
        child_time = Counter()
        for s in chosen:
            if s[1] in by_id:
                child_time[s[1]] += s[6] - s[5]
        layer_self = Counter()
        layer_calls = Counter()     # calls entering the layer from outside it
        layer_busy = Counter()      # duration of those calls
        layer_max = Counter()
        name_calls = Counter()
        name_time = Counter()
        name_self = Counter()
        roots = 0.0
        for s in chosen:
            duration = s[6] - s[5]
            own = duration - child_time[s[0]]
            layer, key = s[3], f"{s[3]}.{s[4]}"
            layer_self[layer] += own
            name_calls[key] += 1
            name_time[key] += duration
            name_self[key] += own
            parent = by_id.get(s[1])
            if parent is None:
                roots += duration
            if parent is None or parent[3] != layer:
                layer_calls[layer] += 1
                layer_busy[layer] += duration
                layer_max[layer] = max(layer_max[layer], duration)
        return {"layer_self": layer_self, "layer_calls": layer_calls,
                "layer_busy": layer_busy, "layer_max": layer_max,
                "name_calls": name_calls, "name_time": name_time,
                "name_self": name_self, "root_time": roots}

    def outer_time(self, names: tuple[str, ...], request_filter) -> float:
        """Time in the named functions, not counting calls nested in each other."""
        keys = {tuple(n.split(".", 1)) for n in names}
        named = {s[0]: s for s in self.spans
                 if request_filter(s[2]) and (s[3], s[4]) in keys}
        return sum(s[6] - s[5] for s in named.values() if s[1] not in named)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "fields": ["id", "parent", "request", "layer", "name",
                                  "start", "end"],
                       "spans": self.spans}, fh)
