"""Command-line interface: orbit, extract, simulate, analyze, sweep.

Every user graph is taken as prepared by the photonic hardware model:
the plans are searched on the graph state with
networks.photonic_preparation_frame (H on odd, Z on even 1-based
vertices), and there is no option to change it.

Exit codes: 0 success, 2 parse error (also an output directory that
cannot be made, and sweep under protocol 2qkd, which has no AKR_2 sweep),
3 no plan found by an exhaustive search, 4 a counts file missing, not
matching its plan's basis string and participants, or holding no outcome
rows, 5 a size cap or search budget exceeded (1 for anything else).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import build_report
from .graphstate import SizeCapError
from .io import (ParseError, RunConfig, parse_counts, parse_graph,
                 report_to_json, sha256_file, write_counts)
from .keyrates import simulate_protocol
from .networks import photonic_preparation_frame
from .noise import pump_sweep
from .routing import (NoPlanFoundError, compile_round_settings, find_ghz_plan,
                      find_pairwise_plan_set, lc_orbit, plan_to_json)

EXIT_PARSE = 2
EXIT_NO_PLAN = 3
EXIT_MISSING_SETTING = 4
EXIT_CAP = 5

# users per run: simulate tabulates all 2^N corrected outcomes of each round
# type, and a counts file can list as many outcome rows
USER_CAP = 12


class CountsMismatchError(ValueError):
    """A counts file that analyze needs is missing, does not match its plan's
    basis string and participants, or holds no outcome rows."""


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    overrides = {name: getattr(args, name, None)
                 for name in ("graph", "seed", "out", "protocol", "rounds", "alice")}
    overrides = {name: val for name, val in overrides.items() if val is not None}
    if getattr(args, "bobs", None):
        try:
            overrides["bobs"] = tuple(int(b) for b in args.bobs.split(","))
        except ValueError:
            raise ParseError(f"--bobs takes comma-separated integer labels, "
                             f"got {args.bobs!r}") from None
    cfg = replace(cfg, **overrides)
    if not cfg.graph:
        raise ParseError("no graph file given (--graph or config)")
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    """cfg.out made as a directory with its parents, or a ParseError naming it."""
    try:
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"output directory {cfg.out}: {exc.strerror}") from None
    return Path(cfg.out)


def _extract_plans(cfg: RunConfig):
    graph = parse_graph(cfg.graph)
    parts = cfg.participants()
    outside = [p + 1 for p in parts if p not in graph.vertices]
    if outside:
        raise ParseError(f"participants {outside} are not vertices 1..{graph.n} "
                         f"of {cfg.graph}")
    if len(parts) > USER_CAP:
        raise SizeCapError(f"runs capped at {USER_CAP} users, got {len(parts)}")
    stray = sorted(v + 1 for v in cfg.noise_model().keyed_vertices()
                   if v not in graph.vertices)
    if stray:
        raise ParseError(f"noise on vertices {stray} outside vertices 1..{graph.n} "
                         f"of {cfg.graph}")
    prep = photonic_preparation_frame(graph.vertices)
    plans = {}
    if cfg.protocol in ("nqkd", "both"):
        plan = find_ghz_plan(graph, parts, preparation_frame=prep)
        if plan is None:
            raise NoPlanFoundError(
                f"no GHZ plan over vertices {sorted(p + 1 for p in parts)}")
        plans["nqkd"] = [plan]
    if cfg.protocol in ("2qkd", "both"):
        plans["2qkd"] = find_pairwise_plan_set(
            graph, cfg.alice - 1, [b - 1 for b in cfg.bobs], prep)
        if plans["2qkd"] is None:
            raise NoPlanFoundError(
                f"no Bell multicast plans span users {sorted(p + 1 for p in parts)}")
    return graph, plans


def cmd_orbit(args) -> int:
    members = lc_orbit(parse_graph(args.graph))
    print(f"orbit of {args.graph}: {len(members)} members")
    for g in sorted(members, key=lambda g: g.edges()):
        print("  " + "; ".join(f"{u + 1}-{v + 1}" for u, v in g.edges()))
    return 0


def cmd_extract(args) -> int:
    cfg = _load_config(args)
    graph, plans = _extract_plans(cfg)
    out = _out_dir(cfg)
    for proto, planset in plans.items():
        for k, plan in enumerate(planset):
            path = out / f"plan_{proto}_{k}.json"
            path.write_text(plan_to_json(plan))
            lcs = " ".join(str(v + 1) for v in plan.lc_sequence) or "(none)"
            bases = " ".join(f"{v + 1}:{b}" for v, b in
                             sorted(plan.nonparticipant_bases.items()))
            print(f"{proto} plan {k}: LC at {lcs}; nonparticipant bases {bases}"
                  f" -> {path}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    if cfg.seed is None:
        raise ParseError("simulation requires a seed")
    graph, plans = _extract_plans(cfg)
    model = cfg.noise_model()
    out = _out_dir(cfg)
    for proto, planset in plans.items():
        for k, plan in enumerate(planset):
            tag = proto if proto == "nqkd" else f"bell{k}"
            b1, b2 = simulate_protocol(plan, cfg.rounds, cfg.seed + k,
                                       cfg.type2_fraction, model)
            for suffix, batch in (("type1", b1), ("type2", b2)):
                path = out / f"{tag}_{suffix}.counts"
                write_counts(path, batch, graph.n, seed=cfg.seed,
                             rounds=cfg.rounds)
                print(f"wrote {path} ({batch.total} rounds)")
    return 0


def cmd_analyze(args) -> int:
    cfg = _load_config(args)
    graph, plans = _extract_plans(cfg)
    counts_dir = Path(args.counts or cfg.out)
    batches = {}
    hashes = {"graph": sha256_file(cfg.graph)}
    expected = [("nqkd", plan) for plan in plans.get("nqkd", [])]
    expected += [(f"bell{k}", plan) for k, plan in enumerate(plans.get("2qkd", []))]
    for tag, plan in expected:
        for rt, suffix in (("type-1", "type1"), ("type-2", "type2")):
            path = counts_dir / f"{tag}_{suffix}.counts"
            if not path.exists():
                raise CountsMismatchError(f"missing counts file for setting {tag}/{rt}: {path}")
            batch = parse_counts(path)
            got = (batch.setting.basis_string(sorted(batch.setting.per_vertex_basis)),
                   [v + 1 for v in batch.participants])
            want = (compile_round_settings(plan, rt).basis_string(graph.vertices),
                    [v + 1 for v in plan.targets])
            if got != want:
                raise CountsMismatchError(f"{path}: basis {got[0]}, participants {got[1]} "
                                          f"do not match the plan's {want[0]}, {want[1]}")
            if not batch.total:
                raise CountsMismatchError(f"{path}: no outcome rows")
            batches[f"{tag}/{rt}"] = batch
            hashes[path.name] = sha256_file(path)
    report = build_report(plans.get("nqkd", [None])[0], plans.get("2qkd", []), batches,
                          mc_samples=cfg.mc_samples,
                          mc_seed=cfg.seed if cfg.seed is not None else 0)
    text = report_to_json(report, hashes, config_echo=vars(cfg))
    out = _out_dir(cfg)
    (out / "report.json").write_text(text)
    print(text, end="")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    if cfg.protocol == "2qkd":
        raise ParseError("sweep takes the GHZ plan (protocol nqkd or both); "
                         "it has no AKR_2 sweep for 2qkd")
    # the sweep reads the GHZ plan alone, so only it is searched
    plan, = _extract_plans(replace(cfg, protocol="nqkd"))[1]["nqkd"]
    model = cfg.noise_model()
    try:
        result = pump_sweep(plan, model, np.linspace(*cfg.sweep_powers))
    except ValueError as exc:
        raise ParseError(f"sweep_powers: {exc}") from None
    out = _out_dir(cfg)
    lines = ["p_mW,akr,rate_hz,keyrate_hz"]
    for p, a, r, k in zip(result.powers, result.akr, result.raw_rates,
                          result.key_rates):
        lines.append(f"{p:.12g},{a:.12g},{r:.12g},{k:.12g}")
    csv_path = out / "sweep.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    summary = {"optimum_power_mw": float(f"{result.optimum_power:.12g}"),
               "optimum_keyrate_hz": float(f"{result.optimum_rate:.12g}")}
    (out / "sweep_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {csv_path}; optimum {result.optimum_power:g} mW "
          f"at {result.optimum_rate:.6g} Hz")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphqcka")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--graph")
        p.add_argument("--config")
        p.add_argument("--out")
        p.add_argument("--protocol", choices=["nqkd", "2qkd", "both"])
        p.add_argument("--alice", type=int)
        p.add_argument("--bobs", help="comma-separated 1-based labels")
        p.add_argument("--rounds", type=int)
        if seed:
            p.add_argument("--seed", type=int)

    p = sub.add_parser("orbit", help="enumerate the local-complementation orbit")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("extract", help="search extraction plans for the roles")
    common(p, seed=False)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("simulate", help="sample protocol rounds to counts files")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="turn counts files into a key-rate report")
    common(p)
    p.add_argument("--counts", help="directory holding counts files")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="pump-power key-rate sweep to CSV")
    common(p, seed=False)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NoPlanFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PLAN
    except CountsMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_SETTING
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
