"""Relative entropy between finite distributions and between behaviors.

All values are in bits (logarithm base 2). The conventions are the usual
ones: terms with Q(z) = 0 contribute nothing, and a term with Q(z) > 0
but Q'(z) = 0 makes the divergence +inf. Infinity is represented
explicitly and propagates through maxima and averages.

One row-wise evaluator, `_kl_rows`, applies both conventions; `kl`,
`per_setting_kl` and the quantifiers' minimax engine in `monotones` all
read it. It sums each row with zeros in place of the terms off Q's
support, which equals the sum over the support alone bit for bit while
a row has fewer than 8 entries (numpy adds rows that short in order);
at 8 or more the two can differ in the last digit. A row sum that
rounding takes below 0 is 0.

One rule, `_weighted_rows`, weighs such divergences: a zero weight drops
its term even where it is +inf, and a positive weight on +inf makes the
weighted sum +inf. `conditional_re` and the engine's row values read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behaviors import (Behavior, InputDistribution, _float_array,
                        _require_same_scenario, _stochastic)
from .errors import IndexMismatch, NotNormalized


@dataclass(frozen=True)
class DivergenceValue:
    """A nonnegative divergence in bits, possibly +inf, together with the
    maximizing setting pair when one exists."""

    bits: float
    argmax_setting: tuple[int, int] | None = None

    def __post_init__(self):
        if not (self.bits >= 0.0 or math.isinf(self.bits)):
            raise NotNormalized(f"divergence must be >= 0, got {self.bits}")

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.bits)

    def __float__(self) -> float:
        return self.bits


def _kl_rows(q: np.ndarray, q_prime: np.ndarray) -> np.ndarray:
    """Row sums of q*log2(q/q') over two 2-D tables: 0 off q's support,
    +inf in a row where q' is 0 on it. A sum that rounding takes below 0,
    for rows equal up to rounding, is 0: a divergence is never negative."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0.0, q * np.log2(q / q_prime), 0.0)
    return np.maximum(terms.sum(axis=1), 0.0)


def _weighted_rows(M: np.ndarray, table: np.ndarray) -> np.ndarray:
    """M @ table for nonnegative weights M and divergences table, which
    may hold +inf: a zero weight contributes nothing, even on an infinite
    entry (never the NaN of 0 * inf), and a positive weight on one makes
    its row +inf."""
    inf = np.isinf(table)
    out = M @ np.where(inf, 0.0, table)
    if inf.any():
        out[np.any(M[:, inf] > 0.0, axis=1)] = math.inf
    return out


def kl(q: np.ndarray, q_prime: np.ndarray) -> DivergenceValue:
    """Kullback-Leibler divergence between two finite distributions.

    Both arguments are flattened; they must share a shape (else
    `IndexMismatch`) and each must be a distribution, as
    `behaviors._stochastic` checks.
    """
    names = ("first distribution", "second distribution")
    qa, qb = (_float_array(arr, name) for arr, name in zip((q, q_prime), names))
    if qa.shape != qb.shape:
        raise IndexMismatch(f"shapes {qa.shape} and {qb.shape} differ")
    rows = [_stochastic(arr.reshape(-1), (arr.size,), 1, name)[None]
            for arr, name in zip((qa, qb), names)]
    return DivergenceValue(float(_kl_rows(*rows)[0]))


def per_setting_kl(p: Behavior, p_prime: Behavior) -> np.ndarray:
    """KL divergence of output columns, per setting pair: shape (sA, sB).

    This single routine feeds both the averaged and the maximized
    behavior divergences so the two stay bit-identical on shared terms.
    """
    _require_same_scenario(p.scenario, p_prime.scenario)
    sc = p.scenario
    m = sc.sA * sc.sB
    return _kl_rows(p.p.reshape(m, -1), p_prime.p.reshape(m, -1)).reshape(sc.sA, sc.sB)


def conditional_re(
    p: Behavior, p_prime: Behavior, d: InputDistribution
) -> DivergenceValue:
    """D-weighted average of the per-setting output divergences.

    Equals the KL divergence between the joint input-output statistics
    P.D and P'.D; settings with zero input weight contribute nothing even
    when their per-setting divergence is infinite.
    """
    _require_same_scenario(p.scenario, d.scenario)
    table = per_setting_kl(p, p_prime).reshape(-1)
    return DivergenceValue(float(_weighted_rows(d.d.reshape(1, -1), table)[0]))


def behavior_re(p: Behavior, p_prime: Behavior) -> DivergenceValue:
    """Maximum over settings of the per-setting output divergence.

    Ties are broken lexicographically in (x, y); the maximizing setting
    is reported.
    """
    table = per_setting_kl(p, p_prime)
    x, y = np.unravel_index(int(np.argmax(table)), table.shape)
    return DivergenceValue(float(table[x, y]), (int(x), int(y)))
