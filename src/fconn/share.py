"""Candidate scoring of ``greedy_krylov`` shared between threads.

Inside ``with share:`` for a :class:`ScoreShare`, each step of a
:func:`fconn.greedy.greedy_krylov` call in that thread is posted to the
share, and the greedy's thread and every thread in :meth:`ScoreShare.serve`
take its candidate indices from one counter, in increasing order, until none
is left. The command line runs its denominator thread in ``serve`` once the
estimate is done, on graphs large enough for a second scorer to pay (see
``fconn.cli.SHARED_SCORING_MIN_NODES``). Jobs below that size never import
this module: run without cached bytecode, a job compiles every module it
imports, and the compiler's transient heap shows in its peak resident set.
"""

from __future__ import annotations

import threading

from .greedy import _SHARE

__all__ = ["ScoreShare"]


class _Step:
    """One posted step: its scorer, its results by index and the next index to hand out."""

    def __init__(self, score, count):
        self.score = score
        self.count = count
        self.next = 0
        self.results = [None] * count
        self.errors = {}  # index -> the exception its score raised


class ScoreShare:
    """Threads that score the candidates of ``greedy_krylov`` beside the greedy's own.

    :meth:`map` returns a step's scores by candidate index, so the plan, its
    ``step_deltas`` and its diagnostics are those of the serial loop, bit for
    bit. Once a score raises, no further index is handed out: every lower
    index has been taken already, so the error raised, that of the lowest
    failing index, is the one the serial loop would raise. Leaving the
    ``with`` block ends every :meth:`serve`.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._step = None  # the posted step, or None between steps
        self._running = 0  # candidates taken by serving threads and not yet stored
        self._closed = False
        self._token = None

    def __enter__(self):
        self._token = _SHARE.set(self)
        return self

    def __exit__(self, *exc):
        _SHARE.reset(self._token)
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def _take(self, step):
        """The next index of ``step`` to score, or None; called holding the lock."""
        if step.errors or step.next == step.count:
            return None
        step.next += 1
        return step.next - 1

    def _score(self, step, idx):
        try:
            step.results[idx] = step.score(idx)
        except BaseException as exc:  # re-raised by map in the greedy's thread
            with self._cond:
                step.errors[idx] = exc

    def serve(self):
        """Score the candidates of posted steps until the ``with`` block ends."""
        while True:
            with self._cond:
                while (step := self._step) is None or (idx := self._take(step)) is None:
                    if self._closed:
                        return
                    self._cond.wait()
                self._running += 1
            try:
                self._score(step, idx)
            finally:
                with self._cond:
                    self._running -= 1
                    self._cond.notify_all()

    def map(self, score, count):
        """``[score(0), ..., score(count - 1)]``, scored by this thread and the serving ones."""
        step = _Step(score, count)
        with self._cond:
            self._step = step
            self._cond.notify_all()
        try:
            while True:
                with self._cond:
                    idx = self._take(step)
                if idx is None:
                    break
                self._score(step, idx)
        finally:
            with self._cond:
                self._step = None
                while self._running:
                    self._cond.wait()
        if step.errors:
            raise step.errors[min(step.errors)]
        return step.results
