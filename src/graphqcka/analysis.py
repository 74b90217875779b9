"""Assembles key-rate reports from protocol round batches.

Bridges the estimators in keyrates with the Poisson Monte Carlo machinery
in noise: given type-1/type-2 batches for the multipartite protocol and/or
the pairwise protocol's Bell plans, it produces a KeyRateReport with
per-field uncertainties.  Values and uncertainties come from one set of
estimators, the row forms in keyrates: the values from the observed counts
as one row (the scalar estimators are views of it), the uncertainties from
every row of noise.poisson_mc_many's count matrix, with NaN on the rows
where a value is undefined.  A Bell pair is read as two bit columns of its
plan's outcomes.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .keyrates import (CountRows, KeyRateReport, RoundBatch, akr_n, akr_n_rows,
                       error_estimates, pairwise_conference_rate_rows, qber_rows,
                       qx_rows)
from .noise import poisson_mc_many
from .routing import ExtractionPlan, network_use_accounting


def pairwise_rates(bell_plans: Sequence[ExtractionPlan],
                   batches: Mapping[str, RoundBatch]) -> tuple[dict[str, float], float]:
    """Per-link asymptotic rates and the combined pairwise conference rate.

    batches is keyed "bell{k}/type-1" / "bell{k}/type-2" per plan index k,
    each over the plan's full participant set.  Raises ValueError for an
    empty batch.
    """
    grouped = _pair_rate_rows(bell_plans, {name: b.rows() for name, b in batches.items()})
    rate_2 = float(pairwise_conference_rate_rows(grouped)[0])
    if math.isnan(rate_2):
        raise ValueError("empty batch")
    rates = {f"{pair[0] + 1}-{pair[1] + 1}": float(r[0])
             for plan, plan_rates in zip(bell_plans, grouped)
             for pair, r in zip(plan.pairs, plan_rates)}
    return rates, rate_2


def _pair_rate_rows(bell_plans, rows: Mapping[str, CountRows]) -> list[list[np.ndarray]]:
    """akr_n of every Bell pair on every row, grouped per plan."""
    return [[akr_n_rows(qber_rows(rows[f"bell{k}/type-1"], pair)[0],
                        qx_rows(rows[f"bell{k}/type-2"], pair)) for pair in plan.pairs]
            for k, plan in enumerate(bell_plans)]


def build_report(ghz_plan: ExtractionPlan | None,
                 bell_plans: Sequence[ExtractionPlan],
                 batches: Mapping[str, RoundBatch],
                 mc_samples: int = 1000, mc_seed: int = 0) -> KeyRateReport:
    """Key-rate report over whatever protocol data is present.

    Expects batches keyed "nqkd/type-1" and "nqkd/type-2" when ghz_plan is
    given, and "bell{k}/type-1" / "bell{k}/type-2" per Bell plan.  Monte
    Carlo uncertainties are attached for every scalar that is defined; the
    ratio is undefined (None, with no uncertainty) when akr_2 is 0.
    """
    qber = qx = float("nan")
    alice = None
    rate_n = float("nan")
    if ghz_plan is not None:
        est = error_estimates(batches["nqkd/type-1"], batches["nqkd/type-2"])
        qber, qx, alice = est.qber, est.qx, est.alice_choice
        rate_n = akr_n(qber, qx)
    rates: dict[str, float] = {}
    rate_2 = float("nan")
    if bell_plans:
        rates, rate_2 = pairwise_rates(bell_plans, batches)
    ratio = None
    if ghz_plan is not None and bell_plans and rate_2 > 0:
        ratio = rate_n / rate_2

    copies = {}
    if ghz_plan is not None:
        copies["nqkd"] = network_use_accounting([ghz_plan], "NQKD")
    if bell_plans:
        copies["2qkd"] = network_use_accounting(list(bell_plans), "2QKD")

    report = KeyRateReport(akr_n=rate_n, pairwise_rates=rates, akr_2=rate_2,
                           ratio=ratio, copies_per_bit=copies, qber=qber,
                           qx=qx, alice_choice=alice)
    if mc_samples > 0 and copies:
        results = poisson_mc_many(
            batches, lambda rows: _report_rows(ghz_plan, bell_plans, rows),
            mc_samples, mc_seed)
        report.uncertainties = {name: r.std for name, r in results.items()}
    return report


def _report_rows(ghz_plan, bell_plans,
                 rows: Mapping[str, CountRows]) -> dict[str, np.ndarray]:
    """The report's scalars on every row of counts, NaN where undefined.

    Row by row these are build_report's values: qber, qx and akr_n need
    both nqkd batches nonempty, akr_2 every Bell batch, and the ratio both
    rates with akr_2 positive.
    """
    out = {}
    if ghz_plan is not None:
        qber, qx = qber_rows(rows["nqkd/type-1"])[0], qx_rows(rows["nqkd/type-2"])
        undefined = np.isnan(qber) | np.isnan(qx)
        qber[undefined] = qx[undefined] = np.nan
        out.update(qber=qber, qx=qx, akr_n=akr_n_rows(qber, qx))
    if bell_plans:
        out["akr_2"] = pairwise_conference_rate_rows(_pair_rate_rows(bell_plans, rows))
    if "akr_n" in out and "akr_2" in out:
        with np.errstate(divide="ignore", invalid="ignore"):
            out["ratio"] = np.where(out["akr_2"] > 0, out["akr_n"] / out["akr_2"], np.nan)
    return out
