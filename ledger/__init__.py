"""ledger — the repository's one benchmark (see ledger/README.md).

Run from the repository root::

    python3 -m ledger                       # every workload, end-to-end metrics
    python3 -m ledger --trace               # per-layer metrics (a separate run)
    python3 -m ledger --workload rw_wcsb_p64 --seed 3 --seconds 14 --trace 0

Nothing in this package imports :mod:`repro` at import time: the parent
process only launches and judges, and the measuring child
(:mod:`ledger.child`) confines itself to one CPU *before* it imports the
program under test.
"""
