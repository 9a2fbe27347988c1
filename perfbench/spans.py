"""In-memory spans around calls into hybridamm's layers, and their self times.

A span records its name, start, end (``time.perf_counter``, which on Linux is
the system-wide monotonic clock, so a child's spans line up with the parent's
clock) and the index of the span that was open when it began.  Spans stay in
a list until the traced process writes them out at exit.
"""

import functools

from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, attrs]
        self._open = []
        self._patches = []  # (owner, attr, original, traced)

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent, {}])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index):
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def wrap(self, owner, attr, name, count=None):
        """Prepare a traced wrapper for ``owner.attr``; ``count(result, args)`` adds attrs.

        ``install()`` puts the wrapper on the object the caller looks the name
        up on, e.g. ``hybridamm.cli`` for names the CLI imported with
        ``from ... import``; ``uninstall()`` puts the original back.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                self.spans[index][4].update(count(result, args))
            return result

        self._patches.append((owner, attr, fn, traced))

    def install(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)


def self_times(spans):
    """Map span index -> duration minus the durations of its direct children."""
    own = {i: s[2] - s[1] for i, s in enumerate(spans)}
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
