"""Outside-in tracing of pascalrepeats: wraps public functions, adds no code to the package.

`Tracer.install` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent). The wrapper is
put in place of the function in every `pascalrepeats.*` namespace that
binds the same object, found through `sys.modules`, so calls through
`from .x import f` bindings are seen too; `UniPoly.sign_at` is patched on
its class. `uninstall` puts every original back. Spans live in flat
arrays until `reduce` turns them into per-function calls and self times
(a span's duration minus the time its child spans cover).

Spans recorded in a process that the traced code forks (the search pool)
stay in that process and are not collected.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

PACKAGE = "pascalrepeats"
LAYERS = ("cli", "search", "ratios", "polynomials", "curves", "census", "combinatorics")
METHODS = (("polynomials", "UniPoly", "sign_at"),)


def _coeff_bits(poly) -> int:
    return max((abs(c).bit_length() for c in poly.coeffs), default=0)


# Extra statistics taken from a call's arguments and return value:
# name -> function(stats, args, kwargs, result) updating the stats dict.
def _search(st, args, kwargs, result):
    y_max = kwargs["y_max"] if "y_max" in kwargs else args[1]
    st["rows"] = st.get("rows", 0) + y_max + 1


def _equality(st, args, kwargs, result):
    st["hits"] = st.get("hits", 0) + (result is True)


def _resultant(st, args, kwargs, result):
    st["max_degree"] = max(st.get("max_degree", 0), result.degree)
    st["max_coeff_bits"] = max(st.get("max_coeff_bits", 0), _coeff_bits(result))


def _roots(st, args, kwargs, result):
    st["roots"] = st.get("roots", 0) + len(result)


def _binomial(st, args, kwargs, result):
    bits = result.bit_length()
    if bits > st.get("max_bits", 0):
        st["max_bits"] = bits


EXTRAS = {
    "search.search": _search,
    "search.equality_check": _equality,
    "polynomials.bipoly_resultant": _resultant,
    "polynomials.isolate_real_roots": _roots,
    "combinatorics.binomial": _binomial,
}


def traced_targets() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for every function the tracer wraps.

    Owner is the defining module for functions and the class for methods.
    """
    out = []
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            if obj.__module__ == module.__name__:
                out.append((f"{layer}.{attr}", module, attr, obj))
    for layer, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
        out.append((f"{layer}.{cls_name}.{attr}", cls, attr, cls.__dict__[attr]))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def clear(self) -> None:
        """Drop recorded spans and statistics; the wrappers keep these containers."""
        for spans in (self.name_id, self.parent, self.start, self.end):
            del spans[:]
        self._stack[:] = [-1]
        for st in self.stats:
            st.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.stats.append({})
        st = self.stats[nid]
        extra = EXTRAS.get(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if extra is not None:
                extra(st, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.names.clear()
        self.stats.clear()
        self.clear()
        targets = traced_targets()
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, owner, attr, original in targets:
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for bound_attr, obj in list(vars(module).items()):
                    if obj is original:
                        self._patches.append((module, bound_attr, original))
                        setattr(module, bound_attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reduce(self) -> dict[str, dict]:
        """Per span name: calls, self_s and any extra statistics."""
        start, end = self.start, self.end
        covered = array("d", bytes(8 * len(start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - covered[i]
        return {
            name: {"calls": calls[nid], "self_s": self_s[nid], **self.stats[nid]}
            for nid, name in enumerate(self.names)
        }
