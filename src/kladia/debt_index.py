"""Bloc Debt Index computation and the bounded policy factor.

Weights are GDP shares recomputed per vintage; the index is the weighted
average of bloc debt ratios; normalization is against the frozen genesis
baseline; the policy factor saturates in [0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import fixedpoint as fp
from .errors import (
    BaselineFrozen,
    BaselineNotFrozen,
    BlocSetMismatch,
    IncompleteBlocSet,
    NonPositiveLambda,
)
from .weo_ingest import (ALL_BLOCS, Bloc, BlocObservation, WeoVintage,
                         check_ranges, kc7_columns)


@dataclass
class BaselineRef:
    """Immutable genesis baseline. Freeze once, then reject every mutation."""

    bdi_ref: int                 # scaled decimal, > 0
    genesis_vintage: WeoVintage
    frozen: bool = False

    def freeze(self) -> None:
        if self.bdi_ref <= 0:
            raise ValueError("bdi_ref must be positive")
        object.__setattr__(self, "frozen", True)

    def __setattr__(self, name, value):
        if getattr(self, "frozen", False) and name in ("bdi_ref", "genesis_vintage"):
            raise BaselineFrozen(f"baseline is frozen; cannot set {name}")
        object.__setattr__(self, name, value)


@dataclass(frozen=True)
class DebtIndexState:
    cycle_year: int
    weights: dict[Bloc, int]
    bdi: int
    x_norm: int
    x_excess: int
    g: int
    lam: int


class Band:
    LOW = "LowDebt"
    MODERATE = "ModerateDebt"
    HIGH = "HighDebt"


@dataclass(frozen=True)
class RegimeBand:
    """Informational thresholds on g; no policy function consumes the band."""

    low_max: int = fp.from_str("0.05")
    high_min: int = fp.from_str("0.7")

    def __post_init__(self):
        if not (0 <= self.low_max < self.high_min < fp.ONE):
            raise ValueError("need 0 <= low_max < high_min < 1")


def normalize(bdi: int, baseline: BaselineRef) -> tuple[int, int]:
    """Ratio to baseline and the nonnegative excess over 1."""
    if not baseline.frozen:
        raise BaselineNotFrozen("baseline must be frozen before use")
    x_norm = fp.div(bdi, baseline.bdi_ref)
    x_excess = max(0, x_norm - fp.ONE)
    return x_norm, x_excess


def policy_factor(x_excess: int, lam: int) -> int:
    """Saturating map x / (1 + lam*x), strictly increasing, in [0, 1)."""
    if lam <= 0:
        raise NonPositiveLambda("lambda must be positive")
    if x_excess < 0:
        raise ValueError("x_excess must be nonnegative")
    if x_excess == 0:
        return 0
    denom = fp.ONE + fp.mul(lam, x_excess)
    g = fp.div(x_excess, denom)
    # rounding can nudge the quotient to exactly 1 for huge x; keep g < 1
    return min(g, fp.ONE - 1)


def classify_band(g: int, bands: RegimeBand = RegimeBand()) -> str:
    if not (0 <= g < fp.ONE):
        raise ValueError("g must be in [0, 1)")
    if g <= bands.low_max:
        return Band.LOW
    if g >= bands.high_min:
        return Band.HIGH
    return Band.MODERATE


def index_kernel(
    debt_ratios: Sequence[int],
    nominal_gdps: Sequence[int],
    baseline: BaselineRef,
    lam: int,
) -> tuple[tuple[int, ...], int, int, int, int]:
    """The yearly chain weights -> BDI -> X, x -> g for one KC7 input set.

    Inputs are scaled values in ALL_BLOCS order. Weights are GDP shares,
    half-even at 9 digits; the rounding residual goes to the largest-GDP
    bloc (ties to the first in ALL_BLOCS order) so they sum to exactly 1.
    Each BDI term is rounded by fp.mul. Returns
    (weights, bdi, x_norm, x_excess, g), weights in ALL_BLOCS order.
    """
    if len(nominal_gdps) != len(ALL_BLOCS):
        raise IncompleteBlocSet(
            f"need one GDP per KC7 bloc, got {len(nominal_gdps)}"
        )
    if len(debt_ratios) != len(nominal_gdps):
        raise BlocSetMismatch("debt ratios and GDPs cover different blocs")
    for bloc, debt_ratio, nominal_gdp in zip(ALL_BLOCS, debt_ratios, nominal_gdps):
        check_ranges(bloc, debt_ratio, nominal_gdp)
    total_gdp = sum(nominal_gdps)
    weights = [fp.div_half_even(gdp * fp.SCALE, total_gdp) for gdp in nominal_gdps]
    residual = fp.ONE - sum(weights)
    if residual:
        # index() finds the first maximum, which breaks ties in bloc order
        weights[nominal_gdps.index(max(nominal_gdps))] += residual
    bdi = sum(map(fp.mul, weights, debt_ratios))
    x_norm, x_excess = normalize(bdi, baseline)
    return tuple(weights), bdi, x_norm, x_excess, policy_factor(x_excess, lam)


def derive_index_state(
    cycle_year: int,
    observations: Sequence[BlocObservation],
    baseline: BaselineRef,
    lam: int,
) -> DebtIndexState:
    """Full pipeline for one cycle: weights -> BDI -> X, x -> g."""
    weights, bdi, x_norm, x_excess, g = index_kernel(
        *kc7_columns(observations), baseline, lam
    )
    return DebtIndexState(cycle_year, dict(zip(ALL_BLOCS, weights)), bdi,
                          x_norm, x_excess, g, lam)
