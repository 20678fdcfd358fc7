"""In-memory span tracing around grouprec's public entry points.

Spans are recorded from the benchmark's side only: each entry point is
replaced, where its caller looks it up, by a wrapper that records the span's
name, start, end and parent. Nothing inside ``src/grouprec`` changes. A
span's self time is its duration minus the durations of its child spans;
one process runs one thread, so children never overlap.
"""

import contextlib
import functools
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent (index or None), info
        self.absent = []  # span names whose entry point was not found
        self._stack = []
        self._patches = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "info": None}
        )
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr, name, info=None):
        """Replace owner.attr by a recording wrapper; info(args, result) -> dict."""
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(orig):
            if name not in self.absent:
                self.absent.append(name)
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if info is not None:
                tracer.spans[idx]["info"] = info(args, out)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def _within(self, scope):
        """For each span named scope, the indices of all its descendants (and itself)."""
        groups = {i: [i] for i, s in enumerate(self.spans) if s["name"] == scope}
        owner = {}
        for i, s in enumerate(self.spans):
            p = s["parent"]
            top = i if i in groups else owner.get(p)
            if top is not None:
                owner[i] = top
                if top != i:
                    groups[top].append(i)
        return list(groups.values())

    def reduce(self, spec):
        """One per-layer figure from a metric spec; None when a span is absent."""
        name = spec["span"]
        if name in self.absent or spec.get("scope") in self.absent:
            return None
        scale = {"s": 1.0, "ms": 1e3}.get(spec["unit"], 1.0)
        stat = spec["stat"]
        if stat in ("p50", "p90"):
            durs = [s["end"] - s["start"] for s in self.spans if s["name"] == name]
            if not durs:
                return 0.0
            q = 0.5 if stat == "p50" else 0.9
            return scale * _quantile(durs, q)
        own = self.self_times()
        per_scope = []
        for members in self._within(spec["scope"]):
            hits = [i for i in members if self.spans[i]["name"] == name]
            if stat == "self":
                per_scope.append(scale * sum(own[i] for i in hits))
            elif stat == "count":
                per_scope.append(float(len(hits)))
            elif stat in ("info_sum", "info_max"):
                vals = [self.spans[i]["info"][spec["key"]] for i in hits]
                agg = sum if stat == "info_sum" else max
                per_scope.append(float(agg(vals)) if vals else 0.0)
            else:
                raise ValueError(f"unknown stat {stat!r}")
        return statistics.median(per_scope) if per_scope else 0.0


def _quantile(values, q):
    """Linear-interpolated quantile, matching numpy's default method."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
