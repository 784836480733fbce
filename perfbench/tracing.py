"""In-memory span recorder for the traced benchmark run.

A span has a name, start, end, parent span and request id.  Spans stay
in memory and are written out once, when the run ends.  A layer's self
time is its span's duration minus the durations of its direct children.

The engine carries no tracing of its own: spans are recorded here, around
calls into its public functions, by wrapping the methods of the engine
objects the benchmark holds (``wrap``).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: parent for spans opened on a thread with no open span (the
        #: HTTP server thread works for the client span open at the time)
        self.foreign_parent: dict | None = None

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str, request: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else self.foreign_parent
        with self._lock:
            sp = {
                "id": len(self.spans),
                "name": name,
                "parent": parent["id"] if parent else None,
                "request": request or (parent["request"] if parent else None),
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp["end"] = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: dict | None) -> dict:
        """Record a span measured elsewhere (e.g. a stage wall taken from
        a build report)."""
        with self._lock:
            sp = {"id": len(self.spans), "name": name,
                  "parent": parent["id"] if parent else None,
                  "request": parent["request"] if parent else None,
                  "start": start, "end": end}
            self.spans.append(sp)
        return sp

    def wrap(self, obj, methods: dict[str, str]) -> None:
        """Record a span named ``methods[attr]`` around every call of
        ``obj.attr`` (instance attribute, so calls the object makes on
        itself are recorded too)."""
        for attr, name in methods.items():
            fn = getattr(obj, attr)

            @functools.wraps(fn)
            def traced(*a, _fn=fn, _name=name, **kw):
                with self.span(_name):
                    return _fn(*a, **kw)

            setattr(obj, attr, traced)

    @staticmethod
    def unwrap(obj, methods) -> None:
        for attr in methods:
            obj.__dict__.pop(attr, None)

    # ------------------------------------------------------------ analysis
    def self_times(self, root: dict) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, span count) over ``root``'s
        subtree, ``root`` included."""
        children = defaultdict(list)
        for sp in self.spans:
            if sp["parent"] is not None:
                children[sp["parent"]].append(sp)
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        todo = [root]
        while todo:
            sp = todo.pop()
            kids = children.get(sp["id"], [])
            dur = sp["end"] - sp["start"]
            out[sp["name"]][0] += dur - sum(k["end"] - k["start"]
                                            for k in kids)
            out[sp["name"]][1] += 1
            todo.extend(kids)
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, **extra}, f)
