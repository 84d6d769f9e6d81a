"""Per-layer spans and counters around braidcong's public functions.

The tracer replaces each traced function, at every place braidcong binds it,
with a wrapper that records a span: its layer, its duration and the time its
traced children took.  Nothing inside braidcong changes; uninstall() puts the
original functions back.

For one pass of a workload the tracer yields, per layer:

* busy time: the time at least one span of the layer is open;
* self time: span durations minus their direct traced children;
* counts, taken from the call's arguments and result on the outermost span
  of the layer only (is_member calls burau_matrix_mod, and its letters are
  counted once).  The time spent counting is excluded from every open span.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable


# (name, unit) of every per-layer metric, in report order.  Time metrics are
# medians over traced passes; counts and bits come from the last traced pass.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("burau.letters", "count"),
    ("burau.busy_s", "s"),
    ("congruence.image.elements", "count"),
    ("congruence.image.products", "count"),
    ("congruence.image.busy_s", "s"),
    ("congruence.center.busy_s", "s"),
    ("congruence.coset.cosets", "count"),
    ("congruence.coset.self_s", "s"),
    ("congruence.rewrite.relation_rows", "count"),
    ("congruence.rewrite.schreier_generators", "count"),
    ("congruence.rewrite.self_s", "s"),
    ("smith.busy_s", "s"),
    ("smith.rows", "count"),
    ("smith.cols", "count"),
    ("smith.nonzeros_in", "count"),
    ("smith.max_entry_bits", "bit"),
    ("congruence.conj.busy_s", "s"),
    ("congruence.conj.self_s", "s"),
    ("congruence.conj.rewrite_s", "s"),
    ("matrices.mat_mul.busy_s", "s"),
    ("cryst.normal_form.calls", "count"),
    ("cryst.normal_form.letters", "count"),
    ("cryst.normal_form.busy_s", "s"),
    ("cryst.mul.calls", "count"),
    ("cryst.order.busy_s", "s"),
    ("cryst.torsion.busy_s", "s"),
    ("cryst.power.busy_s", "s"),
)

# metrics that must repeat exactly between two runs with the same seed
COUNT_UNITS = ("count", "bit")

Counter = Callable[[tuple, dict, object], dict]


def _letters(args: tuple, kwargs: dict, result: object) -> dict:
    return {"letters": len(args[0].letters)}


def _image(args: tuple, kwargs: dict, group) -> dict:
    return {"elements": group.size, "products": group.size * len(group.letters)}


def _coset(args: tuple, kwargs: dict, table) -> dict:
    return {"cosets": table.size}


def _rewrite(args: tuple, kwargs: dict, ab) -> dict:
    return {
        "relation_rows": ab.num_relations,
        "schreier_generators": ab.num_generators,
    }


def _smith(args: tuple, kwargs: dict, form) -> dict:
    matrix = args[0] if args else kwargs["matrix"]
    transforms = (form.left, form.right, form.right_inverse)
    return {
        "rows": form.rows,
        "cols": form.cols,
        "nonzeros_in": sum(1 for row in matrix for x in row if x),
        "max_entry_bits": max(
            (abs(x).bit_length() for t in transforms for row in t for x in row),
            default=0,
        ),
    }


def _normal_form(args: tuple, kwargs: dict, result: object) -> dict:
    return {"calls": 1, "letters": len(args[0].letters)}


def _call(args: tuple, kwargs: dict, result: object) -> dict:
    return {"calls": 1}


@dataclass
class _Frame:
    layer: str
    start: float = 0.0
    children: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Span and counter collector for one braidcong import."""

    def __init__(self, bc) -> None:
        congruence, cryst = bc.congruence, bc.cryst
        # (layer, owner, attribute, counter, rebind everywhere braidcong binds it)
        specs = (
            ("burau", bc.burau, "burau_matrix_mod", _letters, True),
            ("burau", congruence, "is_member", _letters, True),
            ("congruence.image", congruence, "enumerate_image", _image, True),
            ("congruence.center", congruence, "image_center", None, True),
            ("congruence.coset", congruence, "coset_table", _coset, True),
            ("congruence.rewrite", congruence, "abelianization", _rewrite, True),
            ("smith", bc.smith, "smith_normal_form", _smith, True),
            ("congruence.conj", congruence, "conjugation_action", None, True),
            ("congruence.coords", congruence, "subgroup_coordinates", None, True),
            # only the products conjugation_action takes, not the BFS's
            ("matrices.mat_mul", congruence, "mat_mul", None, False),
            ("cryst.normal_form", cryst, "normal_form", _normal_form, True),
            ("cryst.mul", cryst.CrystElement, "__mul__", _call, False),
            ("cryst.order", cryst, "element_order", None, True),
            ("cryst.torsion", cryst, "torsion_search", None, True),
            ("cryst.power", cryst, "power_endomorphism", None, True),
        )
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == bc.__name__ or name.startswith(bc.__name__ + ".")
        ]
        self._bindings: list[tuple[object, str, object, object]] = []
        for layer, owner, attr, counter, everywhere in specs:
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, counter)
            for mod in modules if everywhere else [owner]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, name, original, wrapper))
        self.reset()

    def install(self) -> None:
        """Route the traced functions through their wrappers."""
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    def reset(self) -> None:
        self._stack: list[_Frame] = []
        self._open: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.child_time: dict[tuple[str, str], float] = {}
        self.counts: dict[str, int] = {}

    def _wrap(self, layer: str, fn, counter: Counter | None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            outermost = layer not in tracer._open
            tracer._open[layer] = tracer._open.get(layer, 0) + 1
            frame = _Frame(layer)
            stack.append(frame)
            ok = False
            frame.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                tracer._close(frame, end, outermost)
            if ok and counter is not None and outermost:
                began = time.perf_counter()
                tracer._add_counts(layer, counter(args, kwargs, result))
                spent = time.perf_counter() - began
                for open_frame in stack:
                    open_frame.start += spent
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: _Frame, end: float, outermost: bool) -> None:
        layer = frame.layer
        self._stack.pop()
        depth = self._open[layer] - 1
        if depth:
            self._open[layer] = depth
        else:
            del self._open[layer]
        duration = end - frame.start
        self.self_time[layer] = (
            self.self_time.get(layer, 0.0) + duration - sum(frame.children.values())
        )
        for child, spent in frame.children.items():
            key = (layer, child)
            self.child_time[key] = self.child_time.get(key, 0.0) + spent
        if outermost:
            self.busy[layer] = self.busy.get(layer, 0.0) + duration
        if self._stack:
            parent = self._stack[-1].children
            parent[layer] = parent.get(layer, 0.0) + duration

    def _add_counts(self, layer: str, counts: dict) -> None:
        for key, value in counts.items():
            name = f"{layer}.{key}"
            if key.endswith("_bits"):
                self.counts[name] = max(self.counts.get(name, 0), value)
            else:
                self.counts[name] = self.counts.get(name, 0) + value

    def pass_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value for the pass recorded since reset()."""
        out: dict[str, float] = {}
        for name, unit in LAYER_METRICS:
            layer, _, key = name.rpartition(".")
            if unit in COUNT_UNITS:
                out[name] = self.counts.get(name, 0)
            elif key == "busy_s":
                out[name] = self.busy.get(layer, 0.0)
            elif key == "self_s":
                out[name] = self.self_time.get(layer, 0.0)
        out["congruence.conj.rewrite_s"] = self.child_time.get(
            ("congruence.conj", "congruence.coords"), 0.0
        )
        return out
