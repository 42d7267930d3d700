"""Span tracing around the public functions of the wassalign layers.

The tracer records spans from the benchmark's side: it replaces each function
in BOUNDARIES, in every loaded wassalign module that binds it (a `from ...
import` copies the name), by a wrapper that records the span's name, start,
end and parent, plus a few counts.  Spans stay in memory until the run ends.
A boundary missing from the program is skipped, so its metrics read 0.

Run as a script, it traces one CLI invocation and writes the spans as JSON:

    python perfbench/spans.py SPANS.json align --mu ... --nu ... --out ...
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute); "Class.method" patches the method on the class
BOUNDARIES = (
    ("wassalign.measures", "build_cost_tensor"),
    ("wassalign.lp", "solve_lp"),
    ("wassalign.lp", "LpProblem.add_row"),
    ("wassalign.ot", "wasserstein"),
    ("wassalign.ot", "wasserstein_1d"),
    ("wassalign.alignment", "align"),
    ("wassalign.alignment", "per_entry_ot"),
    ("wassalign.alignment", "report_from_dual"),
    ("wassalign.alignment", "gap_certificate"),
    ("wassalign.dataio", "read_points_csv"),
    ("wassalign.dataio", "write_matrix_csv"),
    ("wassalign.dataio", "write_scatter_svg"),
    ("wassalign.dataio", "json_dumps"),
    ("wassalign.cli", "main"),
)


def _file_bytes(args, kwargs, out):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


# counts recorded at a boundary, from its arguments and result
COUNTERS = {
    "measures.build_cost_tensor": lambda a, kw, out: {"cells": int(out.values.size)},
    "lp.solve_lp": lambda a, kw, out: {
        "iterations": int(getattr(out, "iterations", 0)),
        "rows": int(getattr(a[0], "n_rows", 0)),
    },
    "dataio.write_matrix_csv": _file_bytes,
    "dataio.write_scatter_svg": _file_bytes,
    "dataio.json_dumps": lambda a, kw, out: {"bytes": len(out.encode("utf-8"))},
}

# recursive boundaries: only the outermost call is a span
OUTERMOST_ONLY = {"dataio.json_dumps"}


class Tracer:
    """Collects spans as [name, start, end, parent index, counts or None]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def install(self) -> None:
        for modname, attr in BOUNDARIES:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            name = modname.rsplit(".", 1)[1] + "." + attr
            owner_name, _, fname = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, fname, None) if owner is not None else None
                if callable(original):
                    setattr(owner, fname, self._wrap(name, original))
                continue
            original = getattr(module, fname, None)
            if not callable(original):
                continue
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                modname_ = getattr(mod, "__name__", "")
                if modname_ != "wassalign" and not modname_.startswith("wassalign."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        outermost_only = name in OUTERMOST_ONLY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if outermost_only and parent >= 0 and spans[parent][0] == name:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, parent, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                record[4] = counter(args, kwargs, out)
            return out

        return traced


def layer_totals(spans: list) -> dict:
    """Sums over a span list: per-name counts, inclusive and self times, and counters.

    Returns {name: {"n", "incl_s", "self_s", <counter>...}} plus, under the key
    "solve_lp_under_align_s", the time of solve_lp spans whose parent is align.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    under_align = 0.0
    for idx, (name, start, end, parent, counts) in enumerate(spans):
        entry = totals.setdefault(name, {"n": 0, "incl_s": 0.0, "self_s": 0.0})
        entry["n"] += 1
        entry["incl_s"] += end - start
        entry["self_s"] += end - start - child_time[idx]
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
        if name == "lp.solve_lp" and parent >= 0 and spans[parent][0] == "alignment.align":
            under_align += end - start
    totals["solve_lp_under_align_s"] = under_align
    return totals


def merge_totals(into: dict, more: dict) -> dict:
    for name, entry in more.items():
        if not isinstance(entry, dict):
            into[name] = into.get(name, 0.0) + entry
            continue
        target = into.setdefault(name, {})
        for key, value in entry.items():
            target[key] = target.get(key, 0) + value
    return into


def _trace_cli(out_path: str, argv: list) -> int:
    tracer = Tracer()
    tracer.install()
    import wassalign.cli

    try:
        return wassalign.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(_trace_cli(sys.argv[1], sys.argv[2:]))
