"""repro.api — the one coherent lifecycle API.

The paper's contract is asymmetric: the *library writer* declares
algorithmic choices and accuracy variables once; the *library user*
asks only for an accuracy target.  This package is that contract for
the whole lifecycle — declare → tune → deploy → serve → adapt — as
three objects over the deep stack underneath:

* :class:`Project` — a transform (or suite benchmark) plus its
  training-input generator; owns compilation, the test harness, the
  execution backend (spec strings: ``"serial"``, ``"process:4"``)
  and an optional trial-cache path.
* :meth:`Project.tune` — named settings presets (``"smoke"``,
  ``"paper"``) plus keyword overrides; returns a :class:`TunedHandle`
  with ``.frontier()``, ``.run(...)`` and ``.deploy(store, tag=...)``.
* :class:`Service` — ``Service.load(store, program=...)`` assembles
  the serving engine, telemetry, drift detection and the background
  retune controller from one declarative :class:`ServicePolicy`;
  ``serve()``, ``stats()``, ``poll()``,
  ``start_adaptive()``/``stop_adaptive()``.

The façade delegates to the low-level modules without changing their
behaviour — ``tests/test_api.py`` holds ``Project.tune()`` to the
hand-wired ``Autotuner`` path, frontier- and artifact-digest-equal,
on serial and process backends.  Everything underneath
(:mod:`repro.autotuner`, :mod:`repro.runtime.backends`,
:mod:`repro.serving`) remains public for advanced use.
"""

from repro.api.presets import PRESETS, settings_for
from repro.api.project import Deployment, Project, TunedHandle
from repro.api.service import Service, ServicePolicy

__all__ = [
    "Project",
    "TunedHandle",
    "Deployment",
    "Service",
    "ServicePolicy",
    "PRESETS",
    "settings_for",
]
