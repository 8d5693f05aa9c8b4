"""Counting wrapper around a ``FunctionOracle``.

The wrapper is built with ``dataclasses.replace`` so that ``descriptor``,
``lipschitz_hint`` and ``value_noise`` carry over unchanged, and ``grad`` is
wrapped only when the oracle has one.  Every rng stream in the library is
keyed by ``f.descriptor``; a wrapper that lost it would change the results.
"""

from __future__ import annotations

import dataclasses
import time


class OracleCounter:
    """Eval and grad rows seen by every oracle wrapped with this counter.

    When ``tracer`` is set, the time spent inside the wrapped callables is
    reported to it as ``core.oracle`` busy time.
    """

    def __init__(self) -> None:
        self.eval_calls = 0
        self.eval_points = 0
        self.grad_calls = 0
        self.grad_points = 0
        self.tracer = None

    @property
    def points(self) -> int:
        return self.eval_points + self.grad_points

    def snapshot(self) -> tuple[int, int, int, int]:
        return (self.eval_calls, self.eval_points, self.grad_calls, self.grad_points)

    def _timed(self, fn, P):
        tracer = self.tracer
        if tracer is None:
            return fn(P)
        t0 = time.perf_counter()
        try:
            return fn(P)
        finally:
            tracer.add_oracle_time(time.perf_counter() - t0)

    def wrap(self, f):
        """A copy of oracle ``f`` whose eval (and grad, if any) are counted."""
        inner_eval = f.eval
        inner_grad = f.grad

        def counted_eval(P):
            self.eval_calls += 1
            self.eval_points += len(P)
            return self._timed(inner_eval, P)

        def counted_grad(P):
            self.grad_calls += 1
            self.grad_points += len(P)
            return self._timed(inner_grad, P)

        return dataclasses.replace(
            f, eval=counted_eval, grad=None if inner_grad is None else counted_grad
        )

    def wrap_instance(self, inst):
        return dataclasses.replace(inst, f=self.wrap(inst.f))
