"""File formats: graphs, counts files, run configuration, and reports.

All user-facing vertex labels are 1-based (internal representation is
0-based).  Numeric report fields are serialized with 12 significant digits
so that reruns produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

from .graphstate import Graph
from .keyrates import KeyRateReport, RoundBatch
from .noise import NoiseModel
from .routing import RoundSetting
from . import __version__


class ParseError(ValueError):
    """Malformed input: a file, a config value or a flag.

    Messages about a file name it, and the offending line where there is one.
    """


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte offset {exc.start}") from None


def _content_lines(path: Path) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_graph(path: str | Path) -> Graph:
    """Plain-text graph: first line n, then 1-based `u v` edge lines."""
    path = Path(path)
    lines = _content_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty graph file")
    lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: expected vertex count, got {head!r}") from None
    if n < 1:
        raise ParseError(f"{path}:{lineno}: vertex count must be at least 1, got {n}")
    edges, seen = [], set()
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer label in {line!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"{path}:{lineno}: label out of range 1..{n}")
        if u == v:
            raise ParseError(f"{path}:{lineno}: self-loop {u}")
        pair = frozenset((u, v))
        if pair in seen:
            raise ParseError(f"{path}:{lineno}: duplicate edge {u} {v}")
        seen.add(pair)
        edges.append((u - 1, v - 1))
    return Graph.from_edges(n, edges)


def serialize_graph(graph: Graph) -> str:
    lines = [str(graph.n)]
    lines.extend(f"{u + 1} {v + 1}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"


def write_counts(path: str | Path, batch: RoundBatch, network_size: int,
                 seed: int | None = None, rounds: int | None = None) -> None:
    """Counts file: a setting header, participant labels, then outcome rows."""
    lines = []
    if seed is not None:
        lines.append(f"# seed {seed} rounds {rounds}")
    basis = batch.setting.basis_string(range(network_size))
    lines.append(f"setting {batch.setting.round_type} {basis}")
    lines.append("participants " + " ".join(str(v + 1) for v in batch.participants))
    for key in sorted(batch.counts):
        lines.append(f"{key} {batch.counts[key]}")
    Path(path).write_text("\n".join(lines) + "\n")


def parse_counts(path: str | Path) -> RoundBatch:
    path = Path(path)
    lines = _content_lines(path)
    round_type = basis = None
    participants = None
    counts: dict[str, int] = {}
    total = 0
    for lineno, line in lines:
        parts = line.split()
        if {"setting": round_type, "participants": participants}.get(parts[0]) is not None:
            raise ParseError(f"{path}:{lineno}: duplicate {parts[0]} header")
        if parts[0] == "setting":
            if len(parts) != 3 or parts[1] not in ("type-1", "type-2"):
                raise ParseError(f"{path}:{lineno}: bad setting header {line!r}")
            round_type, basis = parts[1], parts[2]
            if set(basis) - set("XYZ"):
                raise ParseError(f"{path}:{lineno}: basis letters must be X/Y/Z")
        elif parts[0] == "participants":
            try:
                participants = tuple(int(p) - 1 for p in parts[1:])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad participant labels") from None
        else:
            if round_type is None or participants is None:
                raise ParseError(f"{path}:{lineno}: counts before headers")
            if len(parts) != 2 or set(parts[0]) - set("01"):
                raise ParseError(f"{path}:{lineno}: expected 'bitstring count'")
            if len(parts[0]) != len(participants):
                raise ParseError(f"{path}:{lineno}: bitstring length "
                                 f"{len(parts[0])} != {len(participants)} participants")
            if parts[0] in counts:
                raise ParseError(f"{path}:{lineno}: duplicate outcome {parts[0]}")
            try:
                c = int(parts[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-integer count") from None
            if c < 0:
                raise ParseError(f"{path}:{lineno}: negative count")
            total += c
            # Poisson resamples of the counts are drawn and summed in int64
            if total >= 2**62:
                raise ParseError(f"{path}:{lineno}: counts sum to 2**62 or more")
            counts[parts[0]] = c
    if round_type is None or participants is None:
        raise ParseError(f"{path}: missing setting/participants headers")
    setting = RoundSetting(round_type,
                           {i: b for i, b in enumerate(basis)},
                           {i: 1 for i in range(len(basis))})
    return RoundBatch(setting, participants, counts)


@dataclass
class RunConfig:
    """Run description mirroring the CLI flags, loadable from JSON.

    Construction validates every field it can check without the graph and
    raises ParseError on a malformed value.
    """

    graph: str = ""
    alice: int | None = None
    bobs: tuple[int, ...] = ()
    protocol: str = "both"
    rounds: int = 10000
    type2_fraction: float = 0.5
    seed: int | None = None
    out: str = "."
    mc_samples: int = 1000
    noise: dict = field(default_factory=dict)
    sweep_powers: tuple[float, float, int] = (5.0, 200.0, 40)

    def __post_init__(self):
        if not isinstance(self.bobs, (list, tuple)) or not isinstance(
                self.sweep_powers, (list, tuple)):
            raise ParseError("bobs and sweep_powers must be lists")
        self.bobs = tuple(self.bobs)
        self.sweep_powers = tuple(self.sweep_powers)
        checks = (
            (self.protocol in ("nqkd", "2qkd", "both"),
             f"unknown protocol {self.protocol!r}"),
            (all(_is_int(v) for v in (*self.bobs, self.alice)
                 if v is not None), "alice and bobs must be integer labels"),
            (len(self.sweep_powers) == 3
             and all(_is_real(v) for v in self.sweep_powers)
             and 0 <= self.sweep_powers[0] <= self.sweep_powers[1] < math.inf
             and _is_int(self.sweep_powers[2]) and 3 <= self.sweep_powers[2] <= 10**5,
             "sweep_powers must be [low_mw, high_mw, points] with finite "
             "0 <= low_mw <= high_mw and 3 to 100000 integer points, "
             f"got {list(self.sweep_powers)}"),
            (isinstance(self.graph, str) and isinstance(self.out, str),
             "graph and out must be path strings"),
            (_is_int(self.rounds) and 1 <= self.rounds < 2**62,
             f"rounds must be a positive integer below 2**62, got {self.rounds!r}"),
            (_is_real(self.type2_fraction) and 0.0 < self.type2_fraction < 1.0,
             f"type2_fraction must be in (0, 1), got {self.type2_fraction!r}"),
            (self.seed is None or (_is_int(self.seed) and self.seed >= 0),
             f"seed must be a nonnegative integer, got {self.seed!r}"),
            # the report's count matrix holds mc_samples + 1 rows
            (_is_int(self.mc_samples) and 0 <= self.mc_samples <= 10**5,
             f"mc_samples must be an integer in [0, 100000], got {self.mc_samples!r}"),
        )
        for ok, message in checks:
            if not ok:
                raise ParseError(message)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        try:
            data = json.loads(_read_text(path))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ParseError(f"{path}: config must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ParseError(f"{path}: unknown config keys {unknown}")
        try:
            return cls(**data)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None

    def participants(self) -> tuple[int, ...]:
        """0-based sorted participant labels; the roles must be disjoint."""
        if self.alice is None or not self.bobs:
            raise ParseError("config must set alice and bobs")
        users = [self.alice - 1, *(b - 1 for b in self.bobs)]
        if len(set(users)) != len(users):
            raise ParseError("invalid roles: roles must be disjoint")
        return tuple(sorted(users))

    def noise_model(self) -> NoiseModel:
        try:
            kw = dict(self.noise)
            for ch in ("depolarizing", "dephasing", "bit_flip"):
                if ch in kw:
                    kw[ch] = {int(k) - 1: float(v) for k, v in kw[ch].items()}
            return NoiseModel(**kw)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"invalid noise model: {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _round12(value):
    if isinstance(value, float):
        if math.isnan(value):
            return None
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def report_to_json(report: KeyRateReport, input_hashes: Mapping[str, str],
                   config_echo: Mapping | None = None) -> str:
    """Serialize a report with provenance; floats kept to 12 significant digits."""
    payload = {
        "tool_version": __version__,
        "input_hashes": dict(sorted(input_hashes.items())),
        "config": config_echo or {},
        "akr_n": report.akr_n,
        "secure_akr_n": report.secure_akr_n,
        "qber": report.qber,
        "qx": report.qx,
        "alice_choice": None if report.alice_choice is None
        else report.alice_choice + 1,
        "pairwise_rates": report.pairwise_rates,
        "akr_2": report.akr_2,
        "secure_akr_2": report.secure_akr_2,
        "ratio": report.ratio,
        "copies_per_bit": report.copies_per_bit,
        "uncertainties": report.uncertainties,
    }
    return json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n"
