"""Outside-in span tracing for the benchmark.

Every wrapper in this file lives outside ``src/``: the tracer replaces
a public entry point of one layer (a module-level function or a class
method) with a thin wrapper that records a span around the original
call, and puts the original back on :meth:`Tracer.uninstall`.

A span is ``(name, start, end, parent)``; spans are appended to flat
``array`` buffers (about 30 bytes each) so that the per-iteration
``charge`` calls of a long traced run fit in memory, and are written
once, at the end, by :meth:`Tracer.write`.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np


class Tracer:
    """In-memory span recorder with patch/unpatch bookkeeping."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # nested[i]: a span of the same name was already open (the
        # outer one owns the inclusive time); in_pcg[i]: a pcg span was
        self.nested = array("b")
        self.in_pcg = array("b")
        self._stack: list[int] = []
        self._open: dict[int, int] = {}
        self._pcg_id = self._intern("sparse.pcg")
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- recording ----------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        nid = self._intern(name)
        idx = len(self.name)
        depth = self._open.get(nid, 0)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if depth else 0)
        self.in_pcg.append(1 if self._open.get(self._pcg_id, 0) else 0)
        self._open[nid] = depth + 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        nid = self.name[idx]
        self._open[nid] -= 1

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(result, args, kwargs)`` runs
        after the span closes (it feeds the per-episode counters)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by its traced wrapper."""
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        wrapped = self.wrap(original, name, after)
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (a view would pin the buffers
        and make further appends fail)."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64) - self.t0,
            "end": np.array(self.end, dtype=np.float64) - self.t0,
            "nested": np.array(self.nested, dtype=np.int8),
            "in_pcg": np.array(self.in_pcg, dtype=np.int8),
        }

    def summarize(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per span name over spans ``lo <= i < hi``: ``calls`` and
        inclusive ``s`` of outermost spans, ``self_s`` of all spans, and
        the in-pcg / outside-pcg split of ``calls`` and ``s``."""
        a = self.arrays()
        name = a["name"][lo:hi]
        parent = a["parent"][lo:hi]
        dur = a["end"][lo:hi] - a["start"][lo:hi]
        outer = a["nested"][lo:hi] == 0
        in_pcg = a["in_pcg"][lo:hi] == 1
        child = (parent >= lo) & (parent < hi)
        child_sum = np.bincount(
            parent[child] - lo, weights=dur[child], minlength=hi - lo
        )
        self_s = dur - child_sum
        out: dict[str, dict[str, float]] = {}
        for nid, nm in enumerate(self.names):
            sel = name == nid
            if not sel.any():
                continue
            o = sel & outer
            out[nm] = {
                "calls": int(o.sum()),
                "s": float(dur[o].sum()),
                "self_s": float(self_s[sel].sum()),
                "pcg_calls": int((o & in_pcg).sum()),
                "pcg_s": float(dur[o & in_pcg].sum()),
                "other_calls": int((o & ~in_pcg).sum()),
                "other_s": float(dur[o & ~in_pcg].sum()),
            }
        return out

    def write(self, path: str) -> str:
        """Write every span once, as compressed numpy columns (times in
        seconds from tracer creation; ``names[name[i]]`` is span
        ``i``'s name, ``parent[i]`` its parent index or -1)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
        return path
