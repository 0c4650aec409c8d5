"""In-memory spans around calls into cfmimo's public functions.

A :class:`Tracer` replaces chosen public functions, in every cfmimo module
that holds a reference to them, by wrappers that record one span per call:
id, name, start, end, parent id and process id, plus a few call attributes
such as sample counts.  Spans stay in memory and are written out when the
benchmark ends.  Worker processes forked by the sweep inherit the wrappers;
each worker appends the spans of a finished ``run_drop`` to a spool file,
which the parent reads back after the pool has shut down.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import os
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self, spool_dir: Path):
        self.pid = os.getpid()
        self.spool_dir = Path(spool_dir)
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []
        for stale in self.spool_dir.glob("spans-*.jsonl"):
            stale.unlink()

    @contextlib.contextmanager
    def span(self, name: str, **fields):
        """Record one span around the enclosed block."""
        pid = os.getpid()
        span = {"id": f"{pid}:{next(self._ids)}", "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "pid": pid, **fields}
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)
            # a forked worker's memory dies with it: hand its spans over
            if pid != self.pid and name == "experiment.run_drop":
                self._spool(pid)

    def _spool(self, pid: int) -> None:
        mine = [s for s in self.spans if s["pid"] == pid]
        self.spans = [s for s in self.spans if s["pid"] != pid]
        with open(self.spool_dir / f"spans-{pid}.jsonl", "a") as fh:
            for s in mine:
                fh.write(json.dumps(s) + "\n")

    def collect_spool(self) -> None:
        """Move the spans written by worker processes into memory."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(json.loads(line) for line in fh)
            path.unlink()

    def install(self, targets) -> None:
        """Wrap each ``(function, span name, attrs)`` wherever cfmimo holds it.

        ``attrs`` maps the call's bound arguments, defaults applied, to extra
        span fields, or is None.
        """
        for fn, name, attrs in targets:
            traced = self._wrap(fn, name, attrs)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "cfmimo" and not mod_name.startswith("cfmimo."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, fn))

    def _wrap(self, fn, name, attrs):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            fields = {}
            if attrs is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                fields = attrs(bound.arguments)
            with self.span(name, **fields):
                return fn(*args, **kwargs)
        return traced

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
