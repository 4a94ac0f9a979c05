"""Memory probes shared by the test modules: a traced peak and a row log."""

import tracemalloc
import weakref


def traced_peak(f, *args):
    """tracemalloc peak of f(*args) in bytes; the first call's allocations do not count."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class RowLog:
    """Iterates over ``count`` rows made by ``make(i)``.  As it makes each
    row it records, in ``alive``, which rows made before it are still
    alive; it keeps only weak references to them."""

    def __init__(self, make, count: int):
        self.make = make
        self.count = count
        self.refs = []
        self.alive = []

    def __iter__(self):
        for i in range(self.count):
            self.alive.append([k for k, ref in enumerate(self.refs) if ref() is not None])
            row = self.make(i)
            self.refs.append(weakref.ref(row))
            yield row
            del row  # the log holds no row it has handed out
