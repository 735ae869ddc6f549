"""Spans around the package's public functions, for traced runs.

Wrappers are installed by rebinding module and class attributes in this
process, so the calls the package makes internally through those names
(``build_index`` -> ``build_runs``, ``LiveIndex.refresh`` ->
``live.build_index``) are timed as well. Work inside Ray workers and actors
is seen from the benchmark process only, as the call that waits for it. A target the
package no longer has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

import numpy as np

PKG = "snowplow_elasticsearch_loader_ray"

# span record fields
NAME, START, END, PARENT, REQ, TAGS = range(6)


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index or -1, request id, tags]
        self.spans: list[list] = []
        #: request id stamped on every span opened until it changes
        self.req: object = None
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: stack of the first thread that opens a span: the thread program
        #: calls run on. Spans opened on other threads (the msearch combine
        #: pool) nest under whatever it is waiting in.
        self._root: list[int] | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            if self._root is None:
                self._root = st
        return st

    def begin(self, name: str) -> int:
        st = self._stack()
        parent = st[-1] if st else (self._root[-1] if self._root else -1)
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.req, None])
        st.append(idx)
        return idx

    def end(self, idx: int, tags: dict | None = None) -> None:
        self.spans[idx][END] = time.perf_counter()
        if tags:
            self.spans[idx][TAGS] = tags
        st = self._stack()
        if st and st[-1] == idx:
            st.pop()

    # -- installing wrappers ----------------------------------------------
    def _resolve(self, target: str):
        """``"pipelines.build:build_runs"`` → (owner, attribute name)."""
        mod_name, path = target.split(":")
        owner = importlib.import_module(f"{PKG}.{mod_name}")
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        return owner, attr

    def wrap(self, target: str, name: str, tag=None) -> None:
        """Time every call of ``target``. ``tag(result, args)`` returns
        counters to store on the span. A dict entry is written
        ``owner.DICT[key]``."""
        try:
            if target.endswith("]"):
                base, key = target[:-1].split("[")
                owner, attr = self._resolve(base)
                owner, attr = getattr(owner, attr), key
                orig = owner[attr]
            else:
                owner, attr = self._resolve(target)
                orig = getattr(owner, attr)
        except (AttributeError, ImportError, KeyError, ValueError):
            self.absent.append(name)
            return
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.end(idx)
            if tag is not None:
                tracer.spans[idx][TAGS] = tag(out, args)
            return out

        self._set(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def wrap_ray_get(self, module: str, name: str) -> None:
        """Rebind ``<module>.ray`` to a proxy whose ``get`` is timed and
        tagged with the number of remote calls awaited and the array rows
        they returned."""
        try:
            owner = importlib.import_module(f"{PKG}.{module}")
            real = owner.ray
        except (AttributeError, ImportError):
            self.absent.append(name)
            return
        self._set(owner, "ray", _RayProxy(real, self, name))
        self._patched.append((owner, "ray", real))

    @staticmethod
    def _set(owner, attr, value) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            self._set(owner, attr, orig)
        self._patched.clear()

    # -- analysis ---------------------------------------------------------
    def closed(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name and s[END] is not None]

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                out.setdefault(s[PARENT], []).append(i)
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by that span's children."""
        kids = self.children()
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s[END] is None:
                continue
            covered, cur_lo, cur_hi = 0.0, None, None
            for lo, hi in sorted((max(self.spans[c][START], s[START]),
                                  min(self.spans[c][END] or s[END], s[END]))
                                 for c in kids.get(i, ())):
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s[NAME]] = out.get(s[NAME], 0.0) + (s[END] - s[START]) - covered
        return out

    def dump(self, path: str) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump({
                "absent": self.absent,
                "self_s": {k: round(v, 6) for k, v in sorted(self.self_times().items())},
                "spans": [{"name": s[NAME], "start": round(s[START] - t0, 6),
                           "end": None if s[END] is None else round(s[END] - t0, 6),
                           "parent": s[PARENT], "req": s[REQ], "tags": s[TAGS]}
                          for s in self.spans],
            }, f)


def array_rows(obj) -> int:
    """Rows of the numpy arrays a remote call returned: a (ids, values)
    pair counts its length, dicts and lists count their members."""
    if isinstance(obj, tuple) and obj and isinstance(obj[0], np.ndarray):
        return len(obj[0])
    if isinstance(obj, dict):
        return sum(array_rows(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(array_rows(v) for v in obj)
    return 0


class _RayProxy:
    def __init__(self, real, tracer: Tracer, name: str):
        self._real, self._tracer, self._name = real, tracer, name

    def get(self, refs, *args, **kwargs):
        idx = self._tracer.begin(self._name)
        try:
            out = self._real.get(refs, *args, **kwargs)
        finally:
            self._tracer.end(idx)
        self._tracer.spans[idx][TAGS] = {
            "calls": len(refs) if isinstance(refs, list) else 1,
            "rows": array_rows(out)}
        return out

    def __getattr__(self, attr):
        return getattr(self._real, attr)
