"""Bloc Debt Index computation and the bounded policy factor.

Weights are GDP shares recomputed per vintage; the index is the weighted
average of bloc debt ratios; normalization is against the immutable
genesis baseline, which also fixes lambda; the policy factor saturates in
[0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import fixedpoint as fp
from .errors import NonPositiveLambda
from .weo_ingest import WeoVintage


@dataclass(frozen=True)
class BaselineRef:
    """The genesis baseline: BDI_ref, its vintage and the sensitivity lam.

    All three are fixed at genesis: they are checked when the baseline is
    made, and the dataclass is frozen.
    """

    bdi_ref: int                 # scaled decimal, > 0
    genesis_vintage: WeoVintage
    lam: int                     # scaled decimal, > 0; lambda in g = x / (1 + lambda*x)

    def __post_init__(self):
        if self.bdi_ref <= 0:
            raise ValueError("bdi_ref must be positive")
        if self.lam <= 0:
            raise NonPositiveLambda("lambda must be positive")


def normalize(bdi: int, baseline: BaselineRef) -> tuple[int, int]:
    """Ratio to baseline and the nonnegative excess over 1."""
    x_norm = fp.div(bdi, baseline.bdi_ref)
    x_excess = max(0, x_norm - fp.ONE)
    return x_norm, x_excess


def policy_factor(x_excess: int, lam: int) -> int:
    """Saturating map x / (1 + lam*x), strictly increasing, in [0, 1), on
    the domain `index_kernel` gives it: a `BaselineRef`'s lam, which is
    positive, and `normalize`'s x_excess, which is never negative."""
    if x_excess == 0:
        return 0
    denom = fp.ONE + fp.mul(lam, x_excess)
    g = fp.div(x_excess, denom)
    # rounding can nudge the quotient to exactly 1 for huge x; keep g < 1
    return min(g, fp.ONE - 1)


def weighted_bdi(
    debt_ratios: Sequence[int], nominal_gdps: Sequence[int],
) -> tuple[tuple[int, ...], int]:
    """The weights -> BDI half of the index chain for one KC7 input set.

    Inputs are scaled values in ALL_BLOCS order, debt ratios >= 0 and GDPs
    > 0 as their readers check them. Weights are GDP shares, half-even at 9
    digits; the rounding residual goes to the largest-GDP bloc (ties to the
    first in ALL_BLOCS order) so they sum to exactly 1. Each BDI term is
    rounded by fp.mul. Returns (weights, bdi), weights in ALL_BLOCS order.

    A year's input sets recur (every operator that re-checks the same
    payload, the report and its self-check), so the last few results are
    kept.
    """
    return _weighted_bdi(tuple(debt_ratios), tuple(nominal_gdps))


@lru_cache(maxsize=8)
def _weighted_bdi(debt_ratios: tuple[int, ...], nominal_gdps: tuple[int, ...]
                  ) -> tuple[tuple[int, ...], int]:
    total_gdp = sum(nominal_gdps)
    weights = [fp.div_half_even(gdp * fp.SCALE, total_gdp) for gdp in nominal_gdps]
    residual = fp.ONE - sum(weights)
    if residual:
        # index() finds the first maximum, which breaks ties in bloc order
        weights[nominal_gdps.index(max(nominal_gdps))] += residual
    return tuple(weights), sum(map(fp.mul, weights, debt_ratios))


def index_kernel(
    debt_ratios: Sequence[int],
    nominal_gdps: Sequence[int],
    baseline: BaselineRef,
) -> tuple[tuple[int, ...], int, int, int, int]:
    """The yearly chain weights -> BDI -> X, x -> g for one KC7 input set.

    weighted_bdi gives the first half; X is taken against the baseline's
    BDI_ref and g under its lam. Returns (weights, bdi, x_norm, x_excess, g).
    """
    weights, bdi = weighted_bdi(debt_ratios, nominal_gdps)
    x_norm, x_excess = normalize(bdi, baseline)
    return weights, bdi, x_norm, x_excess, policy_factor(x_excess, baseline.lam)
