"""Adaptive control plane: online policy switching + offline threshold tuning.

Two halves, sharing the :class:`~repro.traffic.table.TableEntry` scheme-slot
API the lock table exposes:

* :mod:`repro.control.policy` — the **online** controller.  A declarative
  :class:`PolicyTable` maps per-entry traffic statistics (read fraction,
  waiter depth — virtual-time quantities only) to target scheme/threshold
  choices; :func:`build_swap_plan` turns scenario + policy into a
  deterministic :class:`SwapPlan`, which the open-loop client installs at
  phase boundaries through its one collective drain-reinit-install
  crossing, keeping fingerprints identical across repeat runs, ``--jobs``
  settings and the reference interpreter.
* :mod:`repro.control.tune` — the **offline** auto-tuner behind
  ``repro tune``.  It sweeps registry-declared threshold grids through the
  cached campaign executor, emits the best-known-thresholds manifest
  (``BENCH_tune.json``, gated by ``repro regress``) and reproduces the
  paper's Figure 4 sensitivity story; :func:`~repro.control.tune.policy_from_tune`
  folds the winners back into a :class:`PolicyTable`.

``repro.control.tune`` is imported lazily by its consumers (it pulls in the
whole campaign engine); the policy surface below is the package API.
"""

from repro.control.policy import (
    EntryPhaseStats,
    EntrySwap,
    PolicyRule,
    PolicyTable,
    SwapPlan,
    build_swap_plan,
    policy_min_entry_words,
)

__all__ = [
    "EntryPhaseStats",
    "EntrySwap",
    "PolicyRule",
    "PolicyTable",
    "SwapPlan",
    "build_swap_plan",
    "policy_min_entry_words",
]
