"""In-memory spans around the package's public functions, for the traced run.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it began (its parent), the sweep cycle it ran in, and
optional attributes such as the matrix size.  Spans stay in memory in the
process that made them.  Forked pool workers inherit the wrappers; each
worker appends its finished spans as JSON lines to a file of its own, since
a worker ends without running exit handlers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path


class Tracer:
    """Records spans of wrapped functions; `cycle` tags every span started."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spans: list[dict] = []
        self.cycle = 0
        self._pid = os.getpid()
        self._stack: list[int] = []
        self._seq = 0
        self._spill = None
        self._patched: list[tuple] = []

    def _enter_process(self):
        # first span in a forked worker: spans inherited from the parent stay there
        self._pid = os.getpid()
        self.spans = []
        self._stack = []
        self._spill = open(self.spill_dir / f"spans-{self._pid}.jsonl", "a", buffering=1)

    def wrap(self, name: str, fn, attrs=None):
        """Return `fn` recording a span per call; `attrs(args, kwargs, result)` adds fields."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                self._enter_process()
            self._seq += 1
            span = {"id": f"{self._pid}:{self._seq}", "name": name, "cycle": self.cycle,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(span["id"])
            done = False
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if done and attrs is not None:
                    span.update(attrs(args, kwargs, result))
                self._record(span)
            return result
        return traced

    def _record(self, span: dict):
        if self._spill is not None:
            self._spill.write(json.dumps(span) + "\n")
        else:
            self.spans.append(span)

    def install(self, targets: dict, package: str):
        """Wrap each `module.function` of `targets` in every loaded module of
        `package` that holds it by name, so calls through direct imports are
        seen too.  `targets` maps "module.function" -> attrs callable or None."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for qualname, attrs in targets.items():
            mod_name, fn_name = qualname.split(".")
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self.wrap(qualname, original, attrs)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))

    def uninstall(self):
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched = []

    def collect(self) -> list[dict]:
        """Spans of this process plus those spilled by finished workers."""
        spans = list(self.spans)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
        return spans


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it that its child spans cover."""
    children: dict = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        kids = [(max(c["start"], start), min(c["end"], end)) for c in children.get(s["id"], [])]
        out[s["id"]] = (end - start) - _covered([k for k in kids if k[1] > k[0]])
    return out
