"""The benchmark's workloads: seeded CLI argument lists and output checks.

Seed 0 is the CLI defaults of every drawn parameter; other seeds draw bump
scales and well depths from ranges in which every acceptance bound of the
commands holds.  The program receives only the generated flags.

Grid sizes are fixed below the CLI defaults so that one pass of a workload
takes seconds, not a minute: ``compose-check`` runs on 512 points instead
of 1024 and ``ptf-check`` on a 36x32 product grid instead of 48x48.  The
call structure (48 eigensolves for ``compose-check``, 4 large plus 24 small
for ``ptf-check``) is the same as at the defaults.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

COMPOSE_POINTS = 512
PTF_NT, PTF_NX = 36, 32
TOEPLITZ_N = 256
WELL_HALF_WIDTH = 1.0  # the scan command's default --well-width

# Default scan depths, 0.5, 1, 2, 5, 10, 25, have 2 a sqrt(V) / pi in these
# integer bands; drawn depths keep the fractional part inside [0.1, 0.9],
# away from the zero-energy resonances at the band edges.
_SCAN_BANDS = (0, 0, 0, 1, 2, 3)


def square_well_count(depth: float, half_width: float) -> int:
    """Bound states of -d^2/dx^2 - depth on |x| < half_width, in closed form.

    Even and odd states alternate as the well deepens; a new one appears
    each time 2 a sqrt(depth) passes a multiple of pi.
    """
    return int(math.floor(2.0 * half_width * math.sqrt(depth) / math.pi)) + 1


def resonant_depth(half_width: float) -> float:
    """First zero-energy resonance of the square well, (pi / 2a)^2."""
    return (math.pi / (2.0 * half_width)) ** 2


class Command(NamedTuple):
    """One CLI call of a workload and the check its JSON record must pass."""

    argv: list[str]
    check: Callable[[int, dict], str | None]  # failure text, or None if right


def _exit_zero(code: int, record: dict) -> str | None:
    return None if code == 0 else f"exit code {code}"


def heat_pairs(rng: random.Random | None) -> list[Command]:
    mu1, mu2 = (0.7, 0.9) if rng is None else (
        round(rng.uniform(0.5, 0.95), 3), round(rng.uniform(0.5, 0.95), 3))
    argv = ["compose-check", "--points", str(COMPOSE_POINTS)]
    if rng is not None:
        argv += ["--mu1", repr(mu1), "--mu2", repr(mu2)]

    def check(code, record):
        if code != 0:
            return f"exit code {code}"
        # the closed-form pair index of mu / (1 + x^2) is mu / 2
        gap = abs(record["results"]["plateau_total"] - 0.5 * (mu1 + mu2))
        return None if gap <= 0.02 else f"plateau_total off by {gap:.3g}"

    return [Command(argv, check)]


def suspension(rng: random.Random | None) -> list[Command]:
    argv = ["ptf-check", "--nt", str(PTF_NT), "--nx", str(PTF_NX)]
    if rng is not None:
        argv += ["--mu", repr(round(rng.uniform(0.7, 1.3), 3))]
    return [Command(argv, _exit_zero)]


def lattice_scan(rng: random.Random | None) -> list[Command]:
    def toeplitz_check(code, record):
        res = record["results"]
        if code != 0 or res["index"] != -1:
            return f"exit code {code}, index {res['index']}"
        if not (res["defect_identity_1_exact"] and res["defect_identity_2_exact"]):
            return "defect identities not exact"
        return None

    if rng is None:
        depths = [0.5, 1.0, 2.0, 5.0, 10.0, 25.0]
        scan_argv = ["scan"]
    else:
        depths = [(math.pi * (band + rng.uniform(0.1, 0.9)) / (2.0 * WELL_HALF_WIDTH)) ** 2
                  for band in _SCAN_BANDS]
        depths = [round(d, 4) for d in depths]
        scan_argv = ["scan", "--depths", ",".join(repr(d) for d in depths)]

    def scan_check(code, record):
        if code != 0:
            return f"exit code {code}"
        curve = record["curves"]["scan"]
        rows = [dict(zip(curve["columns"], row)) for row in curve["rows"]]
        for row in rows:
            if row["fredholm_index"] != row["n_bound"]:
                return f"depth {row['depth']}: index {row['fredholm_index']} != {row['n_bound']}"
        for row, depth in zip(rows, depths):
            if row["n_bound"] != square_well_count(depth, WELL_HALF_WIDTH):
                return f"depth {depth}: n_bound {row['n_bound']} != closed form"
        if len(rows) != len(depths) + 1:
            return f"{len(rows)} rows for {len(depths)} depths plus the resonance"
        found = record["results"]["resonant_depth"]
        if abs(found - resonant_depth(WELL_HALF_WIDTH)) > 1e-6:
            return f"resonant depth {found} != (pi/2a)^2"
        return None

    return [
        Command(["toeplitz-example", "--n", str(TOEPLITZ_N)], toeplitz_check),
        Command(scan_argv, scan_check),
    ]


WORKLOADS = {
    "heat-pairs": heat_pairs,
    "suspension": suspension,
    "lattice-scan": lattice_scan,
}


def commands(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](None if seed == 0 else random.Random(seed))
