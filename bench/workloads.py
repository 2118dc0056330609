"""The three workloads: their inputs, made from the seed, and one operation each.

A run is a sequence of rounds.  Round r of a workload always holds the same
slots in the same order; the seed and r only move each tau inside its slot,
so two seeds give the same mix of regimes and nearly the same cost, and no
tau repeats within a run (the per-tau caches of logeq never answer across
operations).  Each round also holds exactly one operation that fails every
time because of a known fault; its input depends on r but not on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

# Upper end of the intermediate regime, 2/(pi - 2), as the paper defines it.
TAU_CRITICAL = 2.0 / (math.pi - 2.0)

# Fractional parts of r * GOLDEN never repeat, which keeps the seed-free
# failing inputs distinct from round to round.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Item:
    """One operation's input.  `fault` names the known fault it should hit."""

    tau: float
    fault: str | None = None
    z: complex = 0j


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _golden(round_index: int) -> float:
    return (round_index * GOLDEN) % 1.0


# ---------------------------------------------------------------------------
# verify: oracle.verify(tau), many quadrature points per tau
# ---------------------------------------------------------------------------

# Eight cheap slots (intermediate and one-cut, ~0.2 s each) and four passing
# two-cut ones (~0.8 s each): of the completed operations the median falls
# inside the cheap group and the tail inside the two-cut group, never on the
# gap between them.  verify passes with margin up to tau ~ 8.5 (sp_error
# 8.8e-5 against 1e-4), so the passing two-cut slots stop at 7.
VERIFY_SLOTS = (
    (-0.95, -0.3), (-0.3, 0.4), (0.4, 1.1), (1.1, 1.7),
    (-1.6, -1.1), (-3.0, -1.6), (-6.0, -3.0), (-12.0, -6.0),
    (1.9, 2.8), (2.8, 4.0), (4.0, 5.5), (5.5, 7.0),
)
SP_DENSITY_FAULT = "sp_density"


def verify_round(seed: int, round_index: int) -> list[Item]:
    rng = _rng("verify", seed, round_index)
    items = [Item(lo + (hi - lo) * rng.random()) for lo, hi in VERIFY_SLOTS]
    # Two-cut tau in [9.5, 11.5): passes is False because _sp_density
    # extrapolates from eps = 1e-3, 1e-4, 1e-5 whatever the piece width.
    items.append(Item(9.5 + 2.0 * _golden(round_index), SP_DENSITY_FAULT))
    return items


def verify_op(logeq, item: Item):
    return logeq.verify(item.tau)


def verify_failed(output) -> bool:
    return not output.passes


# ---------------------------------------------------------------------------
# phase_sweep: one fresh tau per operation, answered once
# ---------------------------------------------------------------------------

PHASE_ATTRACTIVE = ((-20.0, -6.0), (-3.0, -1.2))
PHASE_INTERMEDIATE = ((-0.9, 0.2), (0.6, 1.6))
# Two-cut slots: log10(tau - TAU_CRITICAL) evenly spaced from -9 to the
# value at tau = 30 (beta ~ 0.988).  The seed moves each point by at most a
# tenth of the spacing, because the cost of omega grows like (1 - beta^2)^-2
# and the top slot alone is about half the time of a round.
PHASE_TWO_CUT = 27
PHASE_LOG_LO = -9.0
PHASE_LOG_HI = math.log10(30.0 - TAU_CRITICAL)
PHASE_GRID = 201
NEAR_CRITICAL_FAULT = "near_critical"


def phase_round(seed: int, round_index: int) -> list[Item]:
    rng = _rng("phase_sweep", seed, round_index)

    def z():
        return complex(rng.uniform(-1.2, 1.2), rng.uniform(0.05, 1.0))

    items = [Item(lo + (hi - lo) * rng.random(), z=z())
             for lo, hi in PHASE_ATTRACTIVE + PHASE_INTERMEDIATE]
    step = (PHASE_LOG_HI - PHASE_LOG_LO) / (PHASE_TWO_CUT - 1)
    for i in range(PHASE_TWO_CUT):
        centre = PHASE_LOG_LO + i * step - 0.05 * step
        log_d = centre + 0.1 * step * (rng.random() - 0.5)
        items.append(Item(TAU_CRITICAL + 10.0 ** log_d, z=z()))
    # tau - TAU_CRITICAL in [1e-12, 1e-11): omega raises DomainError because
    # c_recurrence refuses beta^2 <= 1e-10.
    items.append(Item(TAU_CRITICAL + 1e-12 * (1.0 + 9.0 * _golden(round_index)),
                      NEAR_CRITICAL_FAULT, z=complex(0.3, 0.7)))
    return items


@dataclass
class PhaseAnswer:
    regime: str
    beta: float
    omega: float
    density: object
    cauchy: complex
    potential_x: float
    potential: float


def phase_op(logeq, item: Item) -> PhaseAnswer:
    """What a phase-diagram user asks at one tau.

    The report (regime, beta, omega) comes last, so that an operation whose
    omega fails has still done the rest of the work.
    """
    tau = item.tau
    pieces = logeq.support(tau).pieces
    per = PHASE_GRID // len(pieces)
    x = np.concatenate([np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), per)
                        for lo, hi in pieces])
    rho = logeq.density(tau, x)
    c = logeq.cauchy(tau, item.z)
    lo, hi = pieces[-1]
    px = lo + 0.37 * (hi - lo)
    pot = logeq.potential(tau, px)
    rep = logeq.report(tau)
    return PhaseAnswer(rep.regime.value, rep.beta, rep.omega, rho, c, px, pot)


def phase_failed(output) -> bool:
    return False


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m logeq <cmd>` process per operation
# ---------------------------------------------------------------------------

def cli_commands(seed: int) -> list[tuple[str, ...]]:
    """The seven cheap commands of a run; every round repeats them in order.

    verify is left out: at ~2 s it would make the latency distribution
    bimodal.  The two-cut taus stay where omega takes at most ~40 ms.  Seven
    commands make 42 operations in three workers of two rounds each.
    """
    rng = _rng("cli_cold", seed, 0)

    def num(lo, hi):
        return repr(round(rng.uniform(lo, hi), 6))

    return [
        ("regime", "--tau", num(-6.0, -1.2)),
        ("beta", "--tau", num(2.0, 6.0)),
        ("beta", "--tau", num(-8.0, -1.2)),
        ("cauchy", "--tau", num(-0.9, 1.5), "--re", num(-0.8, 0.8), "--im", num(0.2, 0.9)),
        # x in [0.85, 0.95] lies inside [beta, 1] for every tau in [2, 4].
        ("potential", "--tau", num(2.0, 4.0), "--x", num(0.85, 0.95)),
        ("omega", "--tau", num(3.0, 8.0), "--method", "series"),
        ("density", "--tau", num(2.0, 6.0), "--n", "201"),
    ]


def cli_round(seed: int, round_index: int) -> list[tuple[str, ...]]:
    return cli_commands(seed)
