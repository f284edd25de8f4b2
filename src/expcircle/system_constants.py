"""Closed-form constants attached to a certified expanding map.

Everything downstream (coupling epochs, contraction rates, correlation
prefactors, positivity floors) is a function of the certified triple
(lambda, w, sup |T''|) and the Hoelder exponent alpha.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .circle_map import ExpandingMap
from .density_grid import (
    GridDensity,
    _check_alpha,
    holder_coefficient,
    inf_value,
    integrate,
    lipschitz_estimate,
    log_transform,
)
from .errors import CertificationError

# Hoelder coefficients are exact node-pair suprema; class membership checks
# allow only this much rounding (of the iterates, not of the scan) on top
# of the cap.
ROUNDING_SLACK = 1e-9

# ConstantsLedger.to_dict's names of the fields whose JSON name differs.
_JSON_NAMES = {"lam": "lambda", "big_k": "K", "n_big_k": "N_K", "d_exact": "D_exact",
               "d_relaxed": "D_relaxed", "d_tilde": "D_tilde", "c_corr": "C"}


@dataclass(frozen=True)
class ConstantsLedger:
    """Explicit constants for one (map, alpha) pair.

    ``n_k_paper_raw`` is the un-floored epoch exponent 4(Omega+1)/(alpha
    log lambda); ``n_big_k`` applies the uniform integer recipe N(B) =
    floor(log B / (alpha log lambda)) + 1 to B = K, and compute_ledger
    refuses an alpha that would make it exceed 2**53.
    """

    alpha: float
    lam: float
    winding: int
    d1_sup: float
    d2_sup: float
    omega: float
    a: float
    big_k: float
    n_big_k: int
    n_k_paper_raw: float
    d_exact: float
    d_relaxed: float
    d_tilde: float
    theta_exact: float
    theta_paper: float
    c_corr: float
    lower_floor: float

    def n_of(self, bound: float) -> int:
        """Steps after which a Hoelder-log cap of ``bound`` contracts
        below 1: floor(log(bound)/(alpha log lambda)) + 1, and 1 when the
        cap is already <= 1."""
        if bound <= 1.0:
            return 1
        return int(math.floor(math.log(bound) / (self.alpha * math.log(self.lam)))) + 1

    def to_dict(self) -> dict:
        """The fields in order, under their JSON names."""
        return {_JSON_NAMES.get(k, k): v for k, v in asdict(self).items()}


def compute_ledger(m: ExpandingMap, alpha: float) -> ConstantsLedger:
    alpha = _check_alpha(alpha)
    lam = m.lam
    omega = m.d2_sup / (lam * (lam - 1.0))
    log_big_k = 4.0 * (omega + 1.0)
    if log_big_k > math.log(sys.float_info.max):
        raise CertificationError(
            f"K = exp(4(Omega+1)) = exp({log_big_k:.6g}) overflows float64 "
            f"on {m!r} (Omega = {omega:.6g})"
        )
    a = math.exp(-(omega + 1.0)) / 2.0
    big_k = math.exp(log_big_k)
    log_lam = math.log(lam)
    scale = alpha * log_lam
    exponent = math.log(big_k) / scale if scale > 0.0 else math.inf
    if not exponent < 2.0 ** 53:
        raise CertificationError(
            f"N_K = floor({exponent:.6g}) + 1 exceeds 2**53 on {m!r} at "
            f"alpha = {alpha!r}: an integer that large is neither exact in "
            "float64 nor safe in common JSON readers"
        )
    n_big_k = int(math.floor(exponent)) + 1
    led = ConstantsLedger(
        alpha=alpha,
        lam=lam,
        winding=m.winding,
        d1_sup=m.d1_sup,
        d2_sup=m.d2_sup,
        omega=omega,
        a=a,
        big_k=big_k,
        n_big_k=n_big_k,
        n_k_paper_raw=4.0 * (omega + 1.0) / (alpha * log_lam),
        d_exact=2.0 / (1.0 - a),
        d_relaxed=4.0,
        d_tilde=8.0,
        theta_exact=(1.0 - a) ** (1.0 / (alpha * n_big_k)),
        theta_paper=(1.0 - math.exp(-3.0 * (omega + 1.0))) ** (log_lam / (4.0 * (omega + 1.0))),
        c_corr=96.0 * (2.0 + omega) ** 2,
        lower_floor=math.exp(-(omega + 1.0)),
    )
    if not (led.theta_exact < 1.0 and led.theta_paper < 1.0):
        raise CertificationError(
            f"theta_exact = {led.theta_exact!r} and theta_paper = {led.theta_paper!r} "
            f"must both be below 1 in float64 on {m!r}; every envelope built from "
            "them would hold vacuously")
    return led


def hoelder_class_check(psi: GridDensity, cap: float, alpha: float) -> bool:
    """Membership in the class of unit-mass densities with positive values
    and Hoelder-log coefficient at most ``cap`` (up to ROUNDING_SLACK).

    With osc = max - min and Lip = lipschitz_estimate of log psi, every
    node gap at distance d is at most min(osc, Lip d) <= osc^(1-alpha)
    (Lip d)^alpha, so U = osc^(1-alpha) Lip^alpha bounds the coefficient
    (the factor 1 + 1e-12 covers rounding).  When U already meets the cap
    the answer is True without a lag scan; otherwise the exact coefficient
    decides.  Either way the answer is the exact comparison's."""
    if inf_value(psi) <= 0.0:
        return False
    if abs(integrate(psi) - 1.0) > 1e-10:
        return False
    alpha = _check_alpha(alpha)
    log_psi = log_transform(psi)
    osc = float(log_psi.values.max() - log_psi.values.min())
    upper = osc ** (1.0 - alpha) * lipschitz_estimate(log_psi) ** alpha
    if upper * (1.0 + 1e-12) <= cap + ROUNDING_SLACK:
        return True
    return holder_coefficient(log_psi, alpha) <= cap + ROUNDING_SLACK


def pointwise_log_bounds_hold(psi: GridDensity, h_log: float) -> bool:
    """exp(-h_log) <= psi <= exp(h_log) node-wise for h_log the Hoelder-log
    coefficient of psi at any alpha.  Unit mass pins log psi across zero,
    and h_log bounds the gap between its extreme nodes."""
    v = psi.values
    return bool(np.all(v <= math.exp(h_log)) and np.all(v >= math.exp(-h_log)))


def holder_iteration_cap(h: float, ledger: ConstantsLedger) -> float:
    """n-uniform Hoelder cap for every iterate of a density whose own
    coefficient is h: (h / lambda^alpha + (e^Omega - 1)(h + 1))(1 + Omega)."""
    lam_a = ledger.lam ** ledger.alpha
    return (h / lam_a + math.expm1(ledger.omega) * (h + 1.0)) * (1.0 + ledger.omega)


def positivity_floor(h: float, ledger: ConstantsLedger):
    """(n1, floor): from step n1 on, every iterate of a unit-mass density
    with Hoelder coefficient h stays above floor = 1/(2 ||T'||^n1), where
    n1 = 1 + ceil(log(2 L)/(alpha log lambda)) and L caps the coefficient
    of every iterate (including step zero)."""
    cap = max(h, holder_iteration_cap(h, ledger))
    arg = 2.0 * cap
    if arg <= 1.0:
        n1 = 1
    else:
        n1 = max(1, 1 + int(math.ceil(math.log(arg) / (ledger.alpha * math.log(ledger.lam)))))
    return n1, 1.0 / (2.0 * ledger.d1_sup ** n1)
