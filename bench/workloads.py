"""The benchmark's fixed workloads.

Each workload is a function of one integer offset, which shifts its
component window. `--seed` picks the offset from the workload's list; the
first entry, 0, is the default and runs the windows as written. The lists
are committed together with one reference per offset in references.json.

Offset rules:

* compute-loop-q-wide: any offset. Over Q every loop component has the
  same bases, so the work does not change with the window.
* verify-f3-session: multiples of 3 (periodicity with k=3 mod 3). The
  non-default offsets keep the whole window at or above component 3, so
  the collapse check covers all 19 holomorphic components and the
  dichotomy check always adds components 0 and 1: the work is the same on
  every non-default window. The inclusion step keeps its own fixed window
  (holomorphic components 0..9), because holomorphic enumeration cost
  grows with the component.

This module must not import loophom: set-up time is measured around the
first import of loophom in a fresh process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

Q_WIDE = "compute-loop-q-wide"
F3_SESSION = "verify-f3-session"

SESSION_CHECKS = ("collapse", "periodicity", "dichotomy", "unit")
# hol_to_loop_inclusion(n=3, F3, cutoff=120).induced_homology(range(-6, 114), range(0, 10))
INCLUSION_N = 3
INCLUSION_P = 3
INCLUSION_CUTOFF = 120
INCLUSION_DEGREES = (-6, 114)
INCLUSION_WEIGHTS = (0, 10)


@dataclass(frozen=True)
class Workload:
    name: str
    offsets: tuple
    # offset -> list of CLI argument lists, run in order in one process
    cli_calls: Callable[[int], list]
    # (n, characteristic, variant, page cutoff) of every page the workload builds
    pages: tuple
    runs_inclusion: bool = False

    def offset_for(self, seed: int) -> int:
        """Seed 0 gives the default window; other seeds cycle through the
        remaining offsets, so ten consecutive seeds hit the default once."""
        if seed == 0:
            return 0
        rest = self.offsets[1:]
        return rest[(seed - 1) % len(rest)]


def _window(lo: int, hi: int, offset: int) -> str:
    return f"{lo + offset}..{hi + offset}"


def _q_wide(offset: int) -> list:
    return [[
        "compute", "--space", "loop", "--n", "3", "--field", "q",
        "--components", _window(-120, 120, offset), "--cutoff", "480", "--format", "json",
    ]]


def _f3_session(offset: int) -> list:
    return [
        [
            "verify", "--check", check, "--n", "3", "--field", "f3",
            "--components", _window(-9, 9, offset), "--k", "3", "--cutoff", "120",
        ]
        for check in SESSION_CHECKS
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            Q_WIDE,
            (0, 7, -7, 14, -14, 21, -21, 28, -28, 35),
            _q_wide,
            ((3, 0, "loop", 481),),
        ),
        Workload(
            F3_SESSION,
            (0, 12, 15, 18, 21, 24, 27, 30, 33, 36),
            _f3_session,
            ((3, 3, "loop", 121), (3, 3, "hol", 121), (3, 3, "hol", 120), (3, 3, "loop", 120)),
            runs_inclusion=True,
        ),
    )
}
