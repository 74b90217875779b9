"""Assembles key-rate reports from protocol round batches.

Bridges the estimators in keyrates with the Poisson Monte Carlo machinery
in noise: given type-1/type-2 batches for the multipartite protocol and/or
the pairwise protocol's Bell plans, it produces a KeyRateReport with
per-field uncertainties.  The report reads a few participant-subset
parities per batch (_read_masks), so each batch is pooled by them first
(RoundBatch.pooled) and noise.poisson_count_rows draws one Poisson count
per pooled class.  The report's statistics are the row forms in keyrates,
evaluated once per report on every row of that count matrix: row 0, the
observed counts, gives the values (qber, qx, the Alice choice, akr_n, the
per-link rates, akr_2 and the ratio), and the resampled rows give the
uncertainties, with NaN on the rows where a value is undefined.  Without
Monte Carlo the matrix is that one row.  A Bell pair's error and Q_X are
read at its pair mask.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .keyrates import (CountRows, KeyRateReport, RoundBatch, _alice_min_max, _pair_masks,
                       akr_n_rows, count_error_rows, pairwise_conference_rate_rows)
from .noise import monte_carlo_results, poisson_count_rows
from .routing import ExtractionPlan, network_use_accounting


def pairwise_rates(bell_plans: Sequence[ExtractionPlan],
                   batches: Mapping[str, RoundBatch]) -> tuple[dict[str, float], float]:
    """Per-link asymptotic rates and the combined pairwise conference rate.

    batches is keyed "bell{k}/type-1" / "bell{k}/type-2" per plan index k,
    each over the plan's full participant set.  Raises ValueError for no
    plans or an empty batch.
    """
    if not bell_plans:
        raise ValueError("conference rate needs at least one plan")
    values, _, links = _evaluate(None, bell_plans,
                                 {name: b.rows() for name, b in batches.items()})
    if math.isnan(values["akr_2"][0]):
        raise ValueError("empty batch")
    return {link: float(r[0]) for link, r in links.items()}, float(values["akr_2"][0])


def _link_masks(plan: ExtractionPlan, participants: Sequence[int]) -> np.ndarray:
    """Each of the plan's pairs as the mask of its two participants
    (participant i at bit N-1-i), in plan order."""
    n = len(participants)
    return np.array([sum(1 << (n - 1 - participants.index(u)) for u in pair)
                     for pair in plan.pairs], dtype=np.int64)


def _read_masks(ghz_plan, bell_plans,
                batches: Mapping[str, RoundBatch]) -> dict[str, list[int]]:
    """The sorted participant-subset masks whose parities _evaluate reads
    from each batch, each list with the empty set: every pair for
    nqkd/type-1, the full set for nqkd/type-2, and the plan's link pairs
    for both batches of each Bell plan."""
    masks = {}
    if ghz_plan is not None:
        n = len(batches["nqkd/type-1"].participants)
        masks["nqkd/type-1"] = sorted(set(_pair_masks(n).ravel().tolist()))
        masks["nqkd/type-2"] = [0, (1 << n) - 1]
    for k, plan in enumerate(bell_plans):
        links = _link_masks(plan, batches[f"bell{k}/type-1"].participants)
        masks[f"bell{k}/type-1"] = masks[f"bell{k}/type-2"] = sorted({0, *links.tolist()})
    return masks


def build_report(ghz_plan: ExtractionPlan | None,
                 bell_plans: Sequence[ExtractionPlan],
                 batches: Mapping[str, RoundBatch],
                 mc_samples: int = 1000, mc_seed: int = 0) -> KeyRateReport:
    """Key-rate report over whatever protocol data is present.

    Expects batches keyed "nqkd/type-1" and "nqkd/type-2" when ghz_plan is
    given, and "bell{k}/type-1" / "bell{k}/type-2" per Bell plan; other
    batches are not read.  Monte Carlo uncertainties are attached for every
    scalar that is defined; the ratio is undefined (None, with no
    uncertainty) when akr_2 is 0.  Raises ValueError for an empty batch.

    Each batch is pooled by the masks the report reads from it
    (_read_masks, RoundBatch.pooled), which leaves every point value's bits
    as they are, and the statistics are evaluated once, on every row of
    noise.poisson_count_rows over the pooled classes (a single row when
    mc_samples is 0): row 0 gives the values, the other rows the
    uncertainties.
    """
    n_samples = max(mc_samples, 0)
    masks = _read_masks(ghz_plan, bell_plans, batches)
    rows = poisson_count_rows({name: batches[name].pooled(m) for name, m in masks.items()},
                              n_samples, mc_seed, masks)
    values, alice, link_rates = _evaluate(ghz_plan, bell_plans, rows)
    if any(name in values and math.isnan(values[name][0]) for name in ("qber", "akr_2")):
        raise ValueError("empty batch")
    point = {name: float(v[0]) for name, v in values.items()}
    copies = {}
    if ghz_plan is not None:
        copies["nqkd"] = network_use_accounting([ghz_plan], "NQKD")
    if bell_plans:
        copies["2qkd"] = network_use_accounting(list(bell_plans), "2QKD")
    nan = float("nan")
    ratio = point.get("ratio", nan)
    report = KeyRateReport(
        akr_n=point.get("akr_n", nan),
        pairwise_rates={link: float(r[0]) for link, r in link_rates.items()},
        akr_2=point.get("akr_2", nan), ratio=None if math.isnan(ratio) else ratio,
        copies_per_bit=copies, qber=point.get("qber", nan), qx=point.get("qx", nan),
        alice_choice=None if alice is None else int(rows["nqkd/type-1"].participants[alice[0]]))
    if n_samples and values:
        results = monte_carlo_results(values, n_samples, mc_seed)
        report.uncertainties = {name: r.std for name, r in results.items()}
    return report


def _evaluate(ghz_plan, bell_plans, rows: Mapping[str, CountRows],
              ) -> tuple[dict[str, np.ndarray], np.ndarray | None, dict[str, np.ndarray]]:
    """The report's scalars on every row of counts, NaN where undefined,
    Alice's index into the nqkd participants on every row (None without
    ghz_plan), and each link's rate rows, keyed "a-b" with 1-based labels.

    Row by row the scalars are build_report's values: qber, qx and akr_n
    need both nqkd batches nonempty, akr_2 every Bell batch, and the ratio
    both rates with akr_2 positive.  A Bell pair's QBER is its pair error
    and its Q_X that of its pair mask.  The GHZ (QBER, Q_X) rows and every
    link's go through one akr_n_rows call.
    """
    qber_rows, qx_rows, out, alice = [], [], {}, None
    if ghz_plan is not None:
        type1 = rows["nqkd/type-1"]
        n = len(type1.participants)
        errors, qx = count_error_rows(type1, rows["nqkd/type-2"], _pair_masks(n), (1 << n) - 1)
        qber, alice = _alice_min_max(errors)
        undefined = np.isnan(qber) | np.isnan(qx)
        qber[undefined] = qx[undefined] = np.nan
        out.update(qber=qber, qx=qx)
        qber_rows.append(qber[None])
        qx_rows.append(qx[None])
    for k, plan in enumerate(bell_plans):
        type1 = rows[f"bell{k}/type-1"]
        links = _link_masks(plan, type1.participants)
        errors, qx = count_error_rows(type1, rows[f"bell{k}/type-2"], links, links)
        qber_rows.append(errors)
        qx_rows.append(qx)
    if not qber_rows:
        return out, alice, {}
    rates = iter(akr_n_rows(np.concatenate(qber_rows), np.concatenate(qx_rows)))
    if ghz_plan is not None:
        out["akr_n"] = next(rates)
    link_rates, plan_rates = {}, []
    for plan in bell_plans:
        plan_rates.append([next(rates) for _ in plan.pairs])
        link_rates.update({f"{a + 1}-{b + 1}": r for (a, b), r in zip(plan.pairs, plan_rates[-1])})
    if bell_plans:
        out["akr_2"] = pairwise_conference_rate_rows(plan_rates)
    if "akr_n" in out and "akr_2" in out:
        with np.errstate(divide="ignore", invalid="ignore"):
            out["ratio"] = np.where(out["akr_2"] > 0, out["akr_n"] / out["akr_2"], np.nan)
    return out, alice, link_rates
