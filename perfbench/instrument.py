"""Hooks the benchmark puts on the simulator's public classes, from outside.

Everything here wraps a method, or installs a ``SIGALRM`` handler, for
the duration of a ``with`` block and restores it afterwards; nothing in
``src/`` knows the benchmark exists.
"""

from __future__ import annotations

import contextlib
import signal
import time


@contextlib.contextmanager
def patched(owner, name: str, make):
    """Replace ``owner.name`` with ``make(original)`` inside the block."""
    original = owner.__dict__[name]
    setattr(owner, name, make(original))
    try:
        yield original
    finally:
        setattr(owner, name, original)


@contextlib.contextmanager
def every(period_s: float, handler):
    """Call ``handler(frame)`` every ``period_s`` of wall time in the block.

    Driven by ``SIGALRM``: the handler runs between two bytecodes of
    whatever Python code the block is executing, and gets its frame.
    """
    previous = signal.signal(signal.SIGALRM,
                             lambda _signum, frame: handler(frame))
    signal.setitimer(signal.ITIMER_REAL, period_s, period_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class Census:
    """Keeps every instance of the given classes built inside the block.

    Per-layer counters are public attributes of these objects
    (``RpcEndpoint.parks``, ``CxlLink.bytes_read``, ...), read once the
    run is over.
    """

    def __init__(self, *classes):
        self.instances = {cls: [] for cls in classes}
        self._stack = contextlib.ExitStack()

    def __enter__(self) -> "Census":
        for cls, bucket in self.instances.items():
            self._stack.enter_context(
                patched(cls, "__init__", _recording_init(bucket)))
        return self

    def __exit__(self, *exc) -> None:
        self._stack.close()

    def __getitem__(self, cls) -> list:
        return self.instances[cls]

    def total(self, cls, attr: str) -> float:
        return sum(getattr(obj, attr) for obj in self.instances[cls])


def _recording_init(bucket: list):
    def make(original):
        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            bucket.append(self)
        return __init__
    return make


class SetupDone(BaseException):
    """Raised at the first ``Simulator.run`` of a set-up probe.

    A ``BaseException`` so that a harness's ``except Exception`` (a cell
    must report, not raise) lets it through.
    """


class SetupClock:
    """Host seconds from each ``Simulator``'s construction to its first run.

    With ``probe=True`` the first ``Simulator.run`` raises
    :class:`SetupDone` instead of simulating, so set-up alone can be
    repeated cheaply.
    """

    def __init__(self, simulator_cls, probe: bool = False):
        self.setups: list = []
        self._started: dict = {}
        self._probe = probe
        self._stack = contextlib.ExitStack()
        self._cls = simulator_cls

    def __enter__(self) -> "SetupClock":
        self._stack.enter_context(
            patched(self._cls, "__init__", self._construct_hook))
        self._stack.enter_context(
            patched(self._cls, "run", self._first_run_hook))
        return self

    def __exit__(self, *exc):
        self._stack.close()
        return exc[0] is SetupDone

    def _construct_hook(self, original):
        started = self._started

        def __init__(sim, *args, **kwargs):
            started[id(sim)] = time.perf_counter()
            original(sim, *args, **kwargs)
        return __init__

    def _first_run_hook(self, original):
        clock = self

        def run(sim, until=None):
            start = clock._started.pop(id(sim), None)
            if start is not None:
                clock.setups.append(time.perf_counter() - start)
                if clock._probe:
                    raise SetupDone
            return original(sim, until)
        return run
