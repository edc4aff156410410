"""Config-space checks that need the source behind a compiled program.

Two declaration faults change no output, so no execution-based test
can see them: a tunable no rule reads, and an instance no call path
reaches.  :func:`config_space_diagnostics` finds both, from a compiled
program plus the Python source of its rules and every function they
reach (:mod:`~repro.analysis.callgraph`); :func:`repro.lang.check`
reports them as ordinary declaration errors, so
``python -m repro.lang`` and the suite's compile tests gate them.
:func:`search_space_size` is the estimate ``describe()`` prints.

The other kernel contracts — float32 stays float32, a stacked call
equals its slice loop, replay equals execution — are checked
dynamically by the test suite (see DESIGN.md, "Contract checks").
"""

from repro.analysis.callgraph import CallGraph
from repro.analysis.configspace import (
    config_space_diagnostics,
    render_search_space,
    search_space_size,
)

__all__ = ["CallGraph", "config_space_diagnostics", "render_search_space",
           "search_space_size"]
