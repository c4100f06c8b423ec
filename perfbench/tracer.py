"""Span tracing around the public functions of each `upcube` layer module.

The tracer lives entirely in the benchmark: it replaces every public
function of the layer modules with a wrapper, in every `upcube` module
that binds the name, so calls made through `from .setcube import measure`
are caught as well.  Spans are kept in flat arrays in memory and written
out once, at the end of the run; `read_spans` and `layer_stats` derive
calls, self times and computed bytes from that file.

Not wrapped: private names, the `lru_cache` mask-table getters (cache
lookups after warm-up) and generator functions such as `iter_bits`, whose
work happens in the consumer; their time lands in the caller's self time.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "setcube", "lift", "constructions", "bounds", "posets", "search", "upset_io")

# Full passes each word-parallel kernel makes over a 2^n-bit membership
# vector, per call.  `setcube.bytes_computed` is passes * 2^n / 8: a count
# computed from this model, not a measured memory traffic.
KERNEL_PASSES = {
    "setcube.up_closure": lambda n: n,
    "setcube.is_upward_closed": lambda n: n,
    "setcube.minimal_mask": lambda n: n,
    "setcube.addable_mask": lambda n: n + 1,
    "setcube.level_counts": lambda n: n + 1,
    "setcube.occupancy_class_bits": lambda n: 10,
    "setcube.occupancy": lambda n: 4,
    "lift.pull_back": lambda n: 2,
    "lift.topup_to_count": lambda n: 2 * n + 2,
}

# One array per span field; `dims` is the cube dimension of a kernel call
# (-1 for every other span).
_FIELDS = (("name_ids", "H"), ("parents", "i"), ("ops", "i"), ("dims", "b"), ("starts", "d"), ("ends", "d"))


def layer_functions(package) -> list[tuple[str, object]]:
    """(`module.function`, function) for every traced public function."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"{package.__name__}.{layer}"]
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not inspect.isgeneratorfunction(obj)
            ):
                out.append((f"{layer}.{name}", obj))
    return out


def patch_everywhere(package, replacements: dict) -> None:
    """Rebind each replaced function in every loaded module of the package."""
    prefix = package.__name__ + "."
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package.__name__ or modname.startswith(prefix)):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(mod, attr, replacements[value])


class Tracer:
    """In-memory span recorder: name, start, end, parent span and op id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.op = -1
        self.stack = [-1]
        for field, code in _FIELDS:
            setattr(self, field, array(code))

    def install(self, package) -> None:
        family = package.setcube.Family
        replacements = {}
        for qualname, func in layer_functions(package):
            self.names.append(qualname)
            kernel = qualname in KERNEL_PASSES
            replacements[func] = self._wrap(len(self.names) - 1, func, kernel, family)
        patch_everywhere(package, replacements)

    def _wrap(self, name_id: int, func, kernel: bool, family):
        tracer = self
        name_ids, parents, ops, dims = self.name_ids, self.parents, self.ops, self.dims
        starts, ends, stack = self.starts, self.ends, self.stack

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ops.append(tracer.op)
            dims.append(-1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if kernel:
                dims[idx] = result.n if isinstance(result, family) else args[0].n
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        return traced

    def __len__(self) -> int:
        return len(self.starts)

    def write(self, path: Path) -> None:
        """Write every span: one JSON header line, then the raw field arrays."""
        header = {"names": self.names, "count": len(self), "fields": [f for f, _ in _FIELDS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                getattr(self, field).tofile(fh)


def read_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        fields = {}
        for field, code in _FIELDS:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            fields[field] = arr
    return header["names"], fields


def layer_stats(path: Path) -> dict:
    """Per function: calls and self time; plus computed kernel bytes.

    A span's self time is its duration minus the durations of its direct
    child spans, which lie inside it because calls nest on one thread.
    """
    names, f = read_spans(path)
    starts, ends, parents = f["starts"], f["ends"], f["parents"]
    child = array("d", bytes(8 * len(starts)))
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    kernel_bytes = 0
    for i, nid in enumerate(f["name_ids"]):
        calls[nid] += 1
        self_s[nid] += ends[i] - starts[i] - child[i]
        n = f["dims"][i]
        if n >= 0:
            kernel_bytes += KERNEL_PASSES[names[nid]](n) * (1 << n) // 8
    return {
        "calls": dict(zip(names, calls)),
        "self_s": dict(zip(names, self_s)),
        "bytes_computed": kernel_bytes,
        "spans": len(starts),
    }
