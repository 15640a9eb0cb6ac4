"""Command-line front end: deterministic tables from a JSON configuration.

Commands: describe, orbits, kostant, schmid, character, blattner, verify.
Structured output is JSON by default, TSV behind ``--format tsv``; rationals
are always serialized as strings.  Exit codes: 0 success, 1 rejected input,
2 internal invariant violation (including verify failures).

Only the set-up every table command shares is imported with this module;
each command imports the layers it runs (homology, characters, blattner,
verify) inside its own function, so a cold run compiles no other layer.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import (
    GroupTooLarge,
    InvariantViolation,
    NotFiniteType,
    ParameterIncompatible,
    ValidationError,
)
from .orbits import enumerate_closed_orbits
from .realform import CompactGrading, KWeylData, build_grading, weyl_k
from .rootdata import Weight, build_root_system
from .weyl import generate

if TYPE_CHECKING:
    from .homology import HomologyTable

# Longest text accepted for one lambda or nu_box entry; longer text, and any
# exponent notation, is refused before a Fraction is built from it.
MAX_NUMBER_CHARS = 100
# |W| = prod(m_i + 1) over rank exponents m_i >= 1 is at least 2^rank, so no rank
# above 16 passes generate's 100 000 bound; build_root_system alone is O(rank^5).
MAX_RANK = 16


class JobConfig(NamedTuple):
    """One run's inputs, as ``parse_config`` reads them."""

    cartan: tuple[tuple[int, ...], ...]
    compact_simple: tuple[bool, ...]
    lam: Weight | None = None
    nu_box: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None = None
    orbit_index: int | None = None
    # the character command's expansion and the blattner command's oracle column
    which: str = "weyl"
    with_oracle: bool = False


def _fraction(value: object, what: str) -> Fraction:
    if value is None or isinstance(value, bool):
        raise ParameterIncompatible(f"{what} entry {value!r} is not an exact number")
    text = str(value)
    if len(text) > MAX_NUMBER_CHARS:
        raise ParameterIncompatible(
            f"{what} entry has {len(text)} characters; the limit is {MAX_NUMBER_CHARS}"
        )
    if "e" in text or "E" in text:
        raise ParameterIncompatible(f"{what} entry {text!r} uses exponent notation")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterIncompatible(f"{what} entry {value!r} is not an exact number") from None


def _weight(values: object, rank: int) -> Weight:
    if not isinstance(values, list):
        raise ParameterIncompatible("lambda must be a list of exact numbers")
    lam = Weight([_fraction(c, "lambda") for c in values])
    if lam.rank != rank:
        raise ParameterIncompatible("lambda length differs from rank")
    return lam


def _box(lo: object, hi: object, rank: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    if not isinstance(lo, list) or not isinstance(hi, list):
        raise ParameterIncompatible("nu_box must be a pair of lists")
    if len(lo) != rank or len(hi) != rank:
        raise ParameterIncompatible("nu_box endpoints must have one entry per rank")
    return (
        tuple(_fraction(c, "nu_box") for c in lo),
        tuple(_fraction(c, "nu_box") for c in hi),
    )


def parse_config(data: dict) -> JobConfig:
    if not isinstance(data, dict):
        raise NotFiniteType("config must be a JSON object")
    if "cartan" not in data:
        raise NotFiniteType("config lacks a cartan matrix")
    cartan_raw = data["cartan"]
    if not isinstance(cartan_raw, list) or not all(isinstance(r, list) for r in cartan_raw):
        raise NotFiniteType("cartan must be a list of rows")
    cartan = tuple(tuple(entry for entry in row) for row in cartan_raw)
    rank = len(cartan)
    if rank > MAX_RANK:
        raise GroupTooLarge(f"rank {rank} gives |W| >= 2^{rank}; the limit is rank {MAX_RANK}")

    compact_raw = data.get("compact_simple", [True] * rank)
    if (
        not isinstance(compact_raw, list)
        or len(compact_raw) != rank
        or not all(isinstance(c, bool) for c in compact_raw)
    ):
        raise ParameterIncompatible("compact_simple must list one boolean per simple root")

    lam = None
    if data.get("lambda") is not None:
        lam = _weight(data["lambda"], rank)

    nu_box = None
    if data.get("nu_box") is not None:
        box_raw = data["nu_box"]
        if not isinstance(box_raw, list) or len(box_raw) != 2:
            raise ParameterIncompatible("nu_box must be a pair of lists")
        nu_box = _box(box_raw[0], box_raw[1], rank)

    orbit_index = data.get("orbit_index")
    if orbit_index is not None and (
        not isinstance(orbit_index, int) or isinstance(orbit_index, bool)
    ):
        raise ParameterIncompatible("orbit_index must be an integer")

    return JobConfig(
        cartan=cartan,
        compact_simple=tuple(bool(c) for c in compact_raw),
        lam=lam,
        nu_box=nu_box,
        orbit_index=orbit_index,
    )


def _require_lambda(config: JobConfig) -> Weight:
    if config.lam is None:
        raise ParameterIncompatible("this command needs a lambda parameter")
    return config.lam


# (JSON payload, TSV header (empty for none), TSV rows)
Rendered = tuple[object, list[str], list[list[str]]]


def _describe(grading: CompactGrading, kdata: KWeylData, config: JobConfig) -> Rendered:
    rs = grading.rs
    data = {
        "rank": rs.rank,
        "positive_roots": len(rs.positive_roots),
        "weyl_order": kdata.weyl.order,
        "wk_order": kdata.order,
        "q": grading.q,
        # one closed orbit per coset of W_K in W
        "closed_orbits": kdata.weyl.order // kdata.order,
        "rho": rs.rho.serialize(),
        "rho_c": grading.rho_c.serialize(),
        "rho_n": grading.rho_n.serialize(),
        "compact_simple": list(config.compact_simple),
    }
    rows = [[k, json.dumps(v) if isinstance(v, list) else str(v)] for k, v in sorted(data.items())]
    return data, [], rows


def _orbits(grading: CompactGrading, kdata: KWeylData, config: JobConfig) -> Rendered:
    rs = grading.rs
    payload, rows = [], []
    for i, orbit in enumerate(enumerate_closed_orbits(rs, grading, kdata.weyl, kdata)):
        u = orbit.u.word_str()
        signs = ["+" if orbit.u.rho_pairing(a) > 0 else "-" for a in rs.simple_roots]
        strata = [
            {"w": w.word_str(), "cell": cell.word_str(), "dim": dim}
            for dim, cell, w in sorted(zip(kdata.lengthK, orbit.cells, kdata.elements),
                                       key=lambda s: (s[0], s[1].reduced_word))
        ]
        payload.append(
            {"u": u, "u_rho": Weight(orbit.u.rho_image).serialize(), "simple_signs": signs,
             "strata": strata}
        )
        rows += [[str(i), u, "".join(signs), s["w"], s["cell"], str(s["dim"])] for s in strata]
    return payload, ["orbit", "u", "signs", "w", "cell", "dim"], rows


def _degree_rows(table: HomologyTable) -> tuple[dict, list[list[str]]]:
    data = {str(p): [Weight.from_twice(t).serialize() for t in ts]
            for p, ts in sorted(table.rows.items())}
    return data, [[p, json.dumps(ws)] for p, ws in data.items()]


def _kostant(grading: CompactGrading, kdata: KWeylData, config: JobConfig) -> Rendered:
    from .homology import kostant_table

    data, rows = _degree_rows(kostant_table(grading.rs, kdata.weyl, _require_lambda(config)))
    return data, ["degree", "weights"], rows


def _schmid(grading: CompactGrading, kdata: KWeylData, config: JobConfig) -> Rendered:
    from .homology import schmid_table

    lam = _require_lambda(config)
    orbits = enumerate_closed_orbits(grading.rs, grading, kdata.weyl, kdata)
    index = config.orbit_index if config.orbit_index is not None else 0
    if not 0 <= index < len(orbits):
        raise ParameterIncompatible(
            f"orbit index {index} out of range; {len(orbits)} closed orbits"
        )
    data, rows = _degree_rows(schmid_table(grading, kdata, orbits[index], lam))
    return {"orbit": orbits[index].u.word_str(), "rows": data}, ["degree", "weights"], rows


def _character(grading: CompactGrading, kdata: KWeylData, config: JobConfig) -> Rendered:
    from .characters import discrete_numerator, weyl_denominator, weyl_numerator

    meta: dict = {}
    if config.which == "denominator":
        char = weyl_denominator(grading.rs, kdata.weyl)
    elif config.which == "weyl":
        char = weyl_numerator(grading.rs, kdata.weyl, _require_lambda(config))
    elif config.which == "discrete":
        char = discrete_numerator(grading, kdata, _require_lambda(config))
        meta = {"sign": -1 if grading.q % 2 else 1}
    else:
        raise ParameterIncompatible(f"unknown character kind {config.which!r}")
    terms = [{"weight": Weight.from_twice(t).serialize(), "coeff": c}
             for t, c in char.sorted_terms()]
    rows = [[",".join(t["weight"]), str(t["coeff"])] for t in terms]
    return {"terms": terms, **meta}, ["weight", "coeff"], rows


def _blattner(grading: CompactGrading, kdata: KWeylData, config: JobConfig) -> Rendered:
    from .blattner import filtration_table, ktype_table

    lam = _require_lambda(config)
    if config.nu_box is None:
        raise ParameterIncompatible("blattner needs a nu_box")
    table = ktype_table(grading, kdata, lam, config.nu_box)
    with_oracle = config.with_oracle
    oracle = filtration_table(grading, kdata, lam, config.nu_box).entries if with_oracle else {}
    payload, rows = [], []
    for nu, mult in table.sorted_entries():
        entry: dict = {"nu": nu.serialize(), "multiplicity": mult}
        row = [",".join(entry["nu"]), str(mult)]
        if with_oracle:
            entry["oracle"] = oracle.get(nu, 0)
            row.append(str(entry["oracle"]))
        payload.append(entry)
        rows.append(row)
    return payload, ["nu", "multiplicity"] + (["oracle"] if with_oracle else []), rows


TABLES = {
    "describe": _describe,
    "orbits": _orbits,
    "kostant": _kostant,
    "schmid": _schmid,
    "character": _character,
    "blattner": _blattner,
}
COMMANDS = (*TABLES, "verify")


def _verify(grading: CompactGrading, kdata: KWeylData) -> tuple[int, str]:
    from .verify import run_verify

    results = run_verify(grading, kdata)
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        suffix = f": {result.detail}" if result.detail else ""
        lines.append(f"{status} {result.name}{suffix}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} properties hold")
    return (0 if failed == 0 else 2), "\n".join(lines) + "\n"


def run(command: str, config: JobConfig, fmt: str = "json") -> tuple[int, str]:
    """Execute one command; returns (exit code, rendered output)."""
    if command not in COMMANDS:
        raise ParameterIncompatible(f"unknown command {command!r}")

    rs = build_root_system([list(r) for r in config.cartan])
    grading = build_grading(rs, tuple(1 if c else -1 for c in config.compact_simple))
    kdata = weyl_k(rs, grading, generate(rs))
    if command == "verify":
        return _verify(grading, kdata)
    payload, header, rows = TABLES[command](grading, kdata, config)
    if fmt == "tsv":
        lines = ([header] if header else []) + rows
        return 0, "".join("\t".join(line) + "\n" for line in lines)
    return 0, json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _parse_lambda(text: str, rank: int) -> Weight:
    return _weight([part.strip() for part in text.split(",")] if text else [], rank)


def _parse_box(text: str, rank: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    los, his = [], []
    for part in text.split(",") if text else []:
        lo_text, _, hi_text = part.partition("..")
        if not _:
            raise ParameterIncompatible(f"box coordinate {part!r} is not of the form lo..hi")
        los.append(lo_text.strip())
        his.append(hi_text.strip())
    return _box(los, his, rank)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dischar",
        description="Exact discrete-series combinatorics from a JSON configuration.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON configuration")
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument("--lambda", dest="lam", help="weight a/b,c/d,... overriding the config")
    parser.add_argument("--box", help="nu box lo..hi per coordinate, comma separated")
    parser.add_argument("--orbit", type=int, help="closed-orbit index (canonical order)")
    parser.add_argument("--which", choices=("denominator", "weyl", "discrete"),
                        default="weyl", help="character command: which expansion")
    parser.add_argument("--verify", action="store_true",
                        help="blattner command: append the oracle column")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bytes that are not UTF-8, malformed JSON or an integer
        # past the digit limit; RecursionError: arrays nested too deep
        print(json.dumps({"error": "ConfigUnreadable", "message": str(exc)}))
        return 1

    try:
        config = parse_config(raw)
        rank = len(config.cartan)
        if args.lam is not None:
            config = config._replace(lam=_parse_lambda(args.lam, rank))
        if args.box is not None:
            config = config._replace(nu_box=_parse_box(args.box, rank))
        if args.orbit is not None:
            config = config._replace(orbit_index=args.orbit)
        config = config._replace(which=args.which, with_oracle=args.verify)
        code, output = run(args.command, config, fmt=args.format)
    except ValidationError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}))
        return 1
    except InvariantViolation as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}))
        return 2
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
