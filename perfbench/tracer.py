"""Outside-in span tracer for lamsym.

The tracer wraps lamsym's public functions from the benchmark's side; nothing
inside the package changes.  Because `from .expr import simplify` binds the
name separately in every module, a wrapper replaces every binding of the
original function object in every loaded `lamsym` module, including the
defining module's own binding, so calls made inside that module are seen too.

A span is recorded as a list [name, start, end, parent, op, info]:
  name    layer label such as "expr.simplify";
  start   perf_counter() when the call entered;
  end     perf_counter() when it returned or raised;
  parent  index of the enclosing span in `spans`, or -1;
  op      operation id the span belongs to (set by the caller);
  info    what the layer's hook extracted from (args, kwargs, result), or the
          exception when the call raised.
Spans stay in memory until the pass ends.

Recursive functions (simplify, differentiate, substitute) call themselves
through the patched module binding; a call made while a span of the same
name is open passes straight through, so one span covers the outermost call
and `calls` counts outermost calls.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Optional

NAME, START, END, PARENT, OP, INFO = range(6)


class Raised:
    """Marks the info of a span whose call raised."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self.active = False
        self._open: set = set()

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        spans, stack, opened, clock = self.spans, self.stack, self._open, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or name in opened:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            opened.add(name)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[END] = clock()
                span[INFO] = Raised(err)
                raise
            else:
                span[END] = clock()
                if hook is not None:
                    span[INFO] = hook(args, kwargs, result)
                return result
            finally:
                stack.pop()
                opened.discard(name)

        return wrapper

    def install(self, module, attr: str, name: str, hook: Optional[Callable] = None):
        """Replace every binding of `module.attr` in the loaded lamsym modules."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, hook)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "lamsym" and not modname.startswith("lamsym."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
        return wrapper


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the time covered by child spans.

    Children of one span never overlap (one thread), so the covered time is
    the sum of their durations."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]
