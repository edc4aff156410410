"""Violation fixtures for the concurrency / process-boundary passes.

One class (or function) per contract breach, each tagged with a
``noqa-analysis`` marker comment so ``test_concurrency_analysis.py``
can assert the finding's exact ``file:line``.  This module lives apart
from the test file on purpose: ``analyze_modules`` sweeps *every*
class a module defines, and the test classes themselves must not be
swept.
"""

from __future__ import annotations

import pickle
import threading

from repro.contracts import (
    guarded_by,
    process_local,
    requires_lock,
    thread_affine,
)


# ----------------------------------------------------------------------
# REP501 — guarded field touched outside its lock
# ----------------------------------------------------------------------
@thread_affine("caller")
@guarded_by("_lock", "_items")
class BadGuard:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []

    def put(self, x):
        self._items.append(x)  # noqa-analysis: unguarded-mutation

    @requires_lock("_lock")
    def _flush(self):
        self._items.clear()

    def flush(self):
        self._flush()  # noqa-analysis: lockless-call

    def put_safely(self, x):  # negative control: no finding
        with self._lock:
            self._items.append(x)


# ----------------------------------------------------------------------
# REP504 — lock-order inversion between two methods
# ----------------------------------------------------------------------
@guarded_by("_a", "_x")
@guarded_by("_b", "_y")
@thread_affine("caller")
class BadOrder:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()
        self._x = 0
        self._y = 0

    def one(self):
        with self._a:
            with self._b:  # noqa-analysis: order-a-then-b
                self._x = 1
                self._y = 1

    def two(self):
        with self._b:
            with self._a:  # noqa-analysis: order-b-then-a
                self._x = 2
                self._y = 2


# ----------------------------------------------------------------------
# REP505 — threading primitive in a class without a declared contract
# ----------------------------------------------------------------------
class NoContract:
    def __init__(self):
        self._lock = threading.Lock()  # noqa-analysis: undeclared-lock


# ----------------------------------------------------------------------
# REP602 — module-global mutation invisible to worker processes
# ----------------------------------------------------------------------
_CACHE: dict = {}
_COUNTER = 0

_DECLARED: dict = {}
process_local("_DECLARED")


def remember(key, value):
    _CACHE[key] = value  # noqa-analysis: global-container-mutation


def bump():
    global _COUNTER
    _COUNTER += 1  # noqa-analysis: global-rebind


def remember_declared(key, value):  # negative control: declared local
    _DECLARED[key] = value


# ----------------------------------------------------------------------
# REP603 — unpicklable state handed to a process-boundary sink
# ----------------------------------------------------------------------
def ship_lambda():
    return pickle.dumps(lambda: 1)  # noqa-analysis: lambda-to-sink


def ship_nested():
    def helper():
        return 1
    return pickle.dumps(helper)  # noqa-analysis: nested-to-sink


class Shipper:
    def work(self):
        return 1

    def ship(self):
        return pickle.dumps(self.work)  # noqa-analysis: method-to-sink

    def ship_data(self):  # negative control: data attribute, not method
        return pickle.dumps(self.payload)
