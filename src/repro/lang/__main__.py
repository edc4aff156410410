"""``python -m repro.lang`` — the declaration checker CLI.

Runs :func:`repro.lang.check` over every registered suite benchmark
(or the benchmark names passed as arguments) and exits non-zero when
any declaration fails — a compile error, a dead tunable or an
unreachable instance — so CI catches language-frontend regressions
before a single trial runs.  ``--examples <dir>`` also validates
example files; ``--json`` emits machine-readable results.
"""

import sys

from repro.lang.check import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
