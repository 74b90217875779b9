"""Assembles key-rate reports from protocol round batches.

Bridges the estimators in keyrates with the Poisson Monte Carlo machinery
in noise: given type-1/type-2 batches for the multipartite protocol and/or
the pairwise protocol's Bell plans, it produces a KeyRateReport with
per-field uncertainties.  The report's values come from the scalar
estimators; their uncertainties from the estimators' row forms, evaluated
once on noise.poisson_mc_many's count matrix, with NaN on the rows where a
value is undefined.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .keyrates import (CountRows, KeyRateReport, RoundBatch, akr_n, akr_n_rows,
                       error_estimates, pairwise_conference_rate,
                       pairwise_conference_rate_rows, qber_rows, qx_rows)
from .noise import poisson_mc_many
from .routing import ExtractionPlan, network_use_accounting


def _pair_name(pair: tuple[int, int]) -> str:
    return f"{pair[0] + 1}-{pair[1] + 1}"


def pairwise_rates(bell_plans: Sequence[ExtractionPlan],
                   batches: Mapping[str, RoundBatch]) -> tuple[dict[str, float], float]:
    """Per-link asymptotic rates and the combined pairwise conference rate.

    batches is keyed "bell{k}/type-1" / "bell{k}/type-2" per plan index k,
    each over the plan's full participant set; pairs are marginalized out.
    """
    rates: dict[str, float] = {}
    grouped: list[list[float]] = []
    for k, plan in enumerate(bell_plans):
        b1 = batches[f"bell{k}/type-1"]
        b2 = batches[f"bell{k}/type-2"]
        plan_rates = []
        for pair in plan.pairs:
            est = error_estimates(b1.marginal(pair), b2.marginal(pair))
            r = akr_n(est.qber, est.qx)
            rates[_pair_name(pair)] = r
            plan_rates.append(r)
        grouped.append(plan_rates)
    return rates, pairwise_conference_rate(grouped)


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
    rates with akr_2 positive.  A Bell pair's marginal is the pair's two bit
    columns of its plan's outcomes.
    """
    out = {}
    if ghz_plan is not None:
        qber, qx = qber_rows(rows["nqkd/type-1"])[0], qx_rows(rows["nqkd/type-2"])
        undefined = np.isnan(qber) | np.isnan(qx)
        qber[undefined] = qx[undefined] = np.nan
        out.update(qber=qber, qx=qx, akr_n=akr_n_rows(qber, qx))
    if bell_plans:
        out["akr_2"] = pairwise_conference_rate_rows([
            [akr_n_rows(qber_rows(rows[f"bell{k}/type-1"], pair)[0],
                        qx_rows(rows[f"bell{k}/type-2"], pair)) for pair in plan.pairs]
            for k, plan in enumerate(bell_plans)])
    if "akr_n" in out and "akr_2" in out:
        with np.errstate(divide="ignore", invalid="ignore"):
            out["ratio"] = np.where(out["akr_2"] > 0, out["akr_n"] / out["akr_2"], np.nan)
    return out
