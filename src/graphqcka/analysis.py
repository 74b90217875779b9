"""Assembles key-rate reports from protocol round batches.

Bridges the estimators in keyrates with the Poisson Monte Carlo machinery
in noise: given type-1/type-2 batches for the multipartite protocol and/or
the pairwise protocol's Bell plans, it produces a KeyRateReport with
per-field uncertainties.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .keyrates import (KeyRateReport, RoundBatch, akr_n, error_estimates,
                       pairwise_conference_rate)
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
    if mc_samples > 0:
        report.uncertainties = _mc_uncertainties(
            ghz_plan, bell_plans, ratio is not None, batches, mc_samples, mc_seed)
    return report


def _mc_uncertainties(ghz_plan, bell_plans, ratio_defined, batches, mc_samples,
                      mc_seed):
    """Standard deviations of the report's scalars from one Monte Carlo pass.

    The GHZ error estimates and the pairwise conference rate are computed
    once per resample and shared by every statistic built on them.
    """
    nqkd = _once_per_resample(
        lambda bs: error_estimates(bs["nqkd/type-1"], bs["nqkd/type-2"]))
    rate_2 = _once_per_resample(lambda bs: pairwise_rates(bell_plans, bs)[1])
    stats = {}
    if ghz_plan is not None:
        stats["qber"] = lambda bs: nqkd(bs).qber
        stats["qx"] = lambda bs: nqkd(bs).qx
        stats["akr_n"] = lambda bs: akr_n(nqkd(bs).qber, nqkd(bs).qx)
    if bell_plans:
        stats["akr_2"] = rate_2
    if ratio_defined:
        def stat_ratio(bs):
            e = nqkd(bs)
            r2 = rate_2(bs)
            if r2 <= 0:
                raise ValueError("pairwise rate vanished in resample")
            return akr_n(e.qber, e.qx) / r2
        stats["ratio"] = stat_ratio
    results = poisson_mc_many(batches, stats, mc_samples, mc_seed)
    return {name: result.std for name, result in results.items()}


def _once_per_resample(fn):
    """fn, evaluated once per resample; its value or its error is reused.

    poisson_mc_many evaluates every statistic on one resample before it
    builds the next, so remembering the last resample seen is enough.
    """
    last = {"batches": None}

    def shared(bs):
        if last["batches"] is not bs:
            last["batches"] = bs
            try:
                last["value"], last["error"] = fn(bs), None
            except (ValueError, ZeroDivisionError) as exc:
                last["value"], last["error"] = None, exc
        if last["error"] is not None:
            raise last["error"]
        return last["value"]
    return shared
