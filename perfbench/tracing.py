"""In-memory spans around calls into ``countqe``'s public functions.

A :class:`Tracer` replaces a function at the module attribute the package
calls it through (``from .x import f`` binds ``f`` in every importing
module separately, so each binding is patched on its own) and restores it
afterwards.  Wrappers pass arguments, return values and exceptions through
unchanged.

Every wrapped call pushes a frame; when it returns, its duration is added to
the layer's summed time and to the parent frame's child time, so a layer's
self time is its duration minus the time its wrapped children covered.
Calls made once per residue case or per candidate value are tallied (count
and summed time) instead of recorded as spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class _Frame:
    name: str
    span_id: int
    start: float
    child: float = 0.0


@dataclass
class RoundStats:
    """Everything recorded while one round of passes ran."""

    seconds: dict = field(default_factory=lambda: defaultdict(float))
    self_seconds: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    samples: dict = field(default_factory=lambda: defaultdict(list))
    maxima: dict = field(default_factory=lambda: defaultdict(int))


class Tracer:
    """Span recorder plus the patches that feed it.

    ``clock`` is injectable so tests can check the self-time arithmetic with
    exact numbers.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.stats = RoundStats()
        self.op = 0
        self._next_id = 1
        self._patches: list[tuple] = []

    # --- frames ---------------------------------------------------------------

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, self._next_id, self.clock())
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame, record: bool = True) -> None:
        end = self.clock()
        popped = self.stack.pop()
        assert popped is frame, "span frames closed out of order"
        duration = end - frame.start
        stats = self.stats
        stats.seconds[frame.name] += duration
        stats.self_seconds[frame.name] += duration - frame.child
        stats.calls[frame.name] += 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += duration
        if record:
            self.spans.append(
                (
                    frame.span_id,
                    parent.span_id if parent else 0,
                    self.op,
                    frame.name,
                    frame.start,
                    end,
                )
            )

    def untimed(self, start: float) -> None:
        """Exclude bookkeeping that began at ``start`` from the open frame's
        self time."""
        if self.stack:
            self.stack[-1].child += self.clock() - start

    # --- wrappers ---------------------------------------------------------------

    def wrap(self, fn, name: str, record: bool = True, pre=None, post=None):
        """A pass-through wrapper timing ``fn`` as layer ``name``.

        ``pre(args, kwargs)`` runs before the call and ``post(args, kwargs,
        result)`` after its frame closed (only when it returned); their time
        is charged to no layer.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                start = tracer.clock()
                pre(args, kwargs)
                tracer.untimed(start)
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, record)
            if post is not None:
                start = tracer.clock()
                post(args, kwargs, result)
                tracer.untimed(start)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, record: bool = True, pre=None,
              post=None, outermost: bool = False) -> None:
        """Replace ``module.attr`` by a traced wrapper until :meth:`restore`.

        With ``outermost`` the original is put back for the duration of each
        call, so the function's recursive calls (which look the name up in
        ``module``) run unwrapped and at their original stack depth.
        """
        original = getattr(module, attr)
        timed = self.wrap(original, name, record, pre, post)
        if outermost:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                setattr(module, attr, original)
                try:
                    return timed(*args, **kwargs)
                finally:
                    setattr(module, attr, wrapper)

        else:
            wrapper = timed
        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # --- output -------------------------------------------------------------------

    def new_round(self) -> RoundStats:
        """Start a fresh :class:`RoundStats` and return the finished one."""
        done, self.stats = self.stats, RoundStats()
        return done

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON lines, times relative to the
        first span."""
        origin = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "op": op,
                            "name": name,
                            "start_s": round(start - origin, 9),
                            "end_s": round(end - origin, 9),
                        }
                    )
                    + "\n"
                )
