"""The benchmark's workloads: fixed configurations, seeded inputs, jobs and checks.

A workload's ``run_pass(job)`` makes one pass over its fixed job list and
calls ``job(label, fn, check)`` once per job; ``check`` receives the job's
output and says whether it is correct.  Import this module only after
``checkout.use_src()``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import subprocess
import sys

import dischar

from checkout import BENCH, ROOT, subprocess_env

B3 = ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
F4 = ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))
G2 = ((2, -1), (-3, 2))
EXPECTED_PATH = BENCH / "expected.json"
CMD_TIMEOUT_S = 120


def build(cartan, signs):
    """Everything a command or job needs before it starts: the set-up."""
    rs = dischar.build_root_system([list(row) for row in cartan])
    group = dischar.generate(rs)
    grading = dischar.build_grading(rs, signs)
    return rs, group, grading, dischar.weyl_k(rs, grading, group)


def rho_shifts(rank: int) -> list[tuple[int, ...]]:
    """The offsets the seed draws from, as in the acceptance suite."""
    return list(itertools.product((0, 1, 2), repeat=rank))


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def table_digest(table) -> str:
    rows = [[nu.serialize(), mult] for nu, mult in table.sorted_entries()]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def box_points(grading, lo: int, hi: int) -> list[dischar.Weight]:
    """Box points that ``ktype_table`` evaluates: antidominant for R_c+."""
    points = (
        dischar.Weight(coords)
        for coords in itertools.product(range(lo, hi + 1), repeat=grading.rs.rank)
    )
    return [
        nu for nu in points
        if not any(dischar.coroot_pairing(a, nu) > 0 for a in grading.compact_positive)
    ]


class GroupTables:
    """The Weyl-group layers at |W| = 1152 with Blattner idle."""

    name = "group-tables"
    subprocesses = False
    tracer = None
    SIGNS = (1, 1, 1, -1)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def setup(self) -> None:
        self.built = build(F4, self.SIGNS)

    def plan(self) -> None:
        self.expected = load_expected()["cli"]
        # the tables' cost does not depend on these offsets, only their values do
        rs = self.built[0]
        shifts = self.rng.sample(rho_shifts(rs.rank), 5)
        self.kostant_lams = [-dischar.Weight(s) for s in shifts[:3]]
        self.schmid_lams = [
            -rs.rho - dischar.Weight(shifts[3]),
            -rs.rho - rs.rho - dischar.Weight(shifts[4]),
        ]

    # One job is one request a library user makes: one lambda's Kostant
    # table with its BGG re-derivation and Weyl numerator, or one orbit's
    # Schmid tables with their Trauber re-derivations.  Jobs of a kind cost
    # the same, so the latency percentiles fall inside a kind, not between.
    def run_pass(self, job) -> None:
        rs, group, grading, kdata = self.built
        orbits = job(
            "enumerate_closed_orbits",
            lambda: dischar.enumerate_closed_orbits(rs, grading, group, kdata),
            lambda found: len(found) * kdata.order == group.order,
        )
        for lam in self.kostant_lams:
            job(
                "kostant",
                lambda: (
                    dischar.kostant_table(rs, group, lam),
                    dischar.kostant_via_bgg(rs, group, lam),
                    dischar.weyl_numerator(rs, group, lam),
                ),
                lambda out: out[0].total_multiplicity() == group.order
                and out[1] == out[0]
                and out[2] == dischar.euler_character(out[0]),
            )
        first_orbit = None
        for orbit in orbits or ():
            pairs = job(
                "schmid",
                lambda: [
                    (
                        dischar.schmid_table(grading, kdata, orbit, lam),
                        dischar.schmid_via_trauber(grading, kdata, orbit, lam),
                    )
                    for lam in self.schmid_lams
                ],
                lambda out: all(
                    table.total_multiplicity() == kdata.order and via == table
                    for table, via in out
                ),
            )
            first_orbit = first_orbit or pairs
        for index, lam in enumerate(self.schmid_lams):
            job(
                "discrete_numerator",
                lambda: dischar.discrete_numerator(grading, kdata, lam),
                lambda num: num == dischar.euler_character(first_orbit[index][0]),
            )
        run_probe(job, self.expected, self.tracer)


class KTypeBox:
    """The Blattner layer: closed formula over a box, one large nu, the oracle."""

    name = "ktype-box"
    subprocesses = False
    tracer = None
    # Sizes keep one pass near 2 s, so a run holds enough passes for steady
    # medians: the B3 box -8..0^3, F4 nu = (-4)^4 and the G2 box -5..0^2
    # take 8-11 s a pass on a 2-core host.
    B3_SIGNS, B3_BOX = (1, 1, -1), (-6, 0)
    F4_SIGNS, F4_NU = (1, 1, 1, -1), (-3, -3, -4, -4)
    G2_SIGNS, G2_BOX = (1, -1), (-4, 0)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def setup(self) -> None:
        self.built = {
            "B3": build(B3, self.B3_SIGNS),
            "F4": build(F4, self.F4_SIGNS),
            "G2": build(G2, self.G2_SIGNS),
        }

    def plan(self) -> None:
        # lambda stays at -2 rho: the work depends on it strongly (F4 at
        # nu = (-4)^4 takes 3.7 s at -2 rho and 0.03 s at -2 rho - (2,2,2,2)),
        # so the seed only orders the oracle's points
        expected = load_expected()
        self.expected, self.expected_cli = expected["ktype-box"], expected["cli"]
        self.b3_points = len(box_points(self.built["B3"][2], *self.B3_BOX))
        self.g2_points = box_points(self.built["G2"][2], *self.G2_BOX)
        self.rng.shuffle(self.g2_points)

    @staticmethod
    def _lam(rs) -> dischar.Weight:
        return -rs.rho - rs.rho

    def b3_table(self):
        rs, _group, _grading, kdata = self.built["B3"]
        # a fresh grading per call starts with an empty partition memo
        grading = dischar.build_grading(rs, self.B3_SIGNS)
        box = ((self.B3_BOX[0],) * rs.rank, (self.B3_BOX[1],) * rs.rank)
        return dischar.ktype_table(grading, kdata, self._lam(rs), box)

    def f4_multiplicity(self) -> int:
        rs, _group, _grading, kdata = self.built["F4"]
        grading = dischar.build_grading(rs, self.F4_SIGNS)
        nu = dischar.Weight(self.F4_NU)
        return dischar.blattner_multiplicity(grading, kdata, self._lam(rs), nu)

    def g2_sweep(self):
        """The G2 closed-formula table, and the oracle at every point it evaluates."""
        rs, _group, _grading, kdata = self.built["G2"]
        lam = self._lam(rs)
        grading = dischar.build_grading(rs, self.G2_SIGNS)
        box = ((self.G2_BOX[0],) * rs.rank, (self.G2_BOX[1],) * rs.rank)
        table = dischar.ktype_table(grading, kdata, lam, box)
        oracle = [
            (nu, dischar.filtration_oracle(grading, kdata, lam, nu)) for nu in self.g2_points
        ]
        return table, oracle

    # Three jobs of similar cost, so the latency percentiles do not fall
    # between job kinds.
    def run_pass(self, job) -> None:
        job("ktype_table B3", self.b3_table,
            lambda t: table_digest(t) == self.expected["B3_table_sha256"])
        job("blattner_multiplicity F4", self.f4_multiplicity,
            lambda m: m == self.expected["F4_multiplicity"])
        job(
            "G2 table and oracle",
            self.g2_sweep,
            lambda out: set(out[0].entries) <= set(self.g2_points)
            and all(value == out[0].entries.get(nu, 0) for nu, value in out[1]),
        )
        run_probe(job, self.expected_cli, self.tracer)

    def rates(self, durations: dict[str, list[float]]) -> dict[str, float]:
        """Points per second of the closed formula (B3 box and F4) and of the G2 sweep."""
        passes = len(durations["ktype_table B3"])
        closed = sum(durations["ktype_table B3"]) + sum(durations["blattner_multiplicity F4"])
        oracle = sum(durations["G2 table and oracle"])
        return {
            "ktypes_per_s": passes * (self.b3_points + 1) / closed,
            "oracle_points_per_s": passes * len(self.g2_points) / oracle,
        }


def _config(name: str) -> dict:
    return json.loads((BENCH / "configs" / f"{name}.json").read_text(encoding="utf-8"))


LAMBDA = "--lambda"  # placeholder for the seeded lambda in a command template
PER_CONFIG = (
    ("describe",),
    ("orbits",),
    ("kostant", LAMBDA),
    ("schmid", LAMBDA),
    ("character", "--which", "weyl", LAMBDA),
    ("character", "--which", "discrete", LAMBDA),
    ("blattner", "--verify"),
)
LADDER = (
    *((name, PER_CONFIG) for name in
      ("readme1_a1", "readme2_a2", "readme3_a2", "b2", "g2", "a3")),
    *((name, (("verify",),)) for name in ("readme2_a2", "b2", "a3")),
    ("d4", (("describe",), ("kostant", LAMBDA), ("character", "--which", "denominator"))),
)
LADDER_CONFIGS = tuple(dict.fromkeys(config for config, _templates in LADDER))
# Two cold commands on README example 1 (sl(2,R)) end every in-process pass.
# Between them they reach every layer in a few milliseconds of work, so each
# traced run measures a time for every layer instead of printing zeros.
PROBE = ("readme1_a1", (("verify",), ("blattner", "--verify")))


def _argv(config: str, template: tuple[str, ...], shift: tuple[int, ...]) -> list[str]:
    argv = [template[0], "--config", f"perfbench/configs/{config}.json"]
    for part in template[1:]:
        if part == LAMBDA:
            # -rho - shift: strongly antidominant and integral
            part = "--lambda=" + ",".join(str(-1 - s) for s in shift)
        argv.append(part)
    return argv


def all_cli_commands() -> list[list[str]]:
    """Every command line any seed can draw, for recording expected outputs."""
    commands = []
    for config, templates in (*LADDER, PROBE):
        rank = len(_config(config)["cartan"])
        for template in templates:
            shifts = rho_shifts(rank) if LAMBDA in template else [(0,) * rank]
            commands.extend(_argv(config, template, s) for s in shifts)
    return commands


def run_cli(argv: list[str], traced: bool = False) -> subprocess.CompletedProcess:
    """One cold ``python -m dischar`` process, or its traced twin."""
    if traced:
        head = [sys.executable, str(BENCH / "traced_cli.py")]
    else:
        head = [sys.executable, "-m", "dischar"]
    return subprocess.run(
        head + argv, cwd=ROOT, env=subprocess_env(), capture_output=True,
        timeout=CMD_TIMEOUT_S, check=False,
    )


def cli_digest(proc: subprocess.CompletedProcess) -> str:
    return f"{proc.returncode}:{hashlib.sha256(proc.stdout).hexdigest()}"


def command_job(job, argv: list[str], expected: dict, tracer=None) -> None:
    """One CLI command as a job, checked against its recorded digest.

    With a tracer, the command runs traced and its spans are adopted under
    the job's span.
    """

    def run():
        proc = run_cli(argv, traced=tracer is not None)
        if tracer is not None:
            *_, last = proc.stderr.decode().rstrip("\n").rsplit("\n", 1)
            tracer.adopt(json.loads(last))
        return proc

    key = " ".join(argv)
    job(argv[0], run, lambda proc: cli_digest(proc) == expected[key])


def run_probe(job, expected: dict, tracer) -> None:
    config, templates = PROBE
    for template in templates:
        command_job(job, _argv(config, template, ()), expected, tracer)


class CliLadder:
    """What a shell user pays: one cold process per command."""

    name = "cli-ladder"
    subprocesses = True
    tracer = None

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def setup(self) -> None:
        # every command pays this set-up again in its own process
        self.built = {}
        for config in LADDER_CONFIGS:
            data = _config(config)
            signs = tuple(1 if c else -1 for c in data["compact_simple"])
            self.built[config] = build(data["cartan"], signs)

    def plan(self) -> None:
        self.expected = load_expected()["cli"]
        shift = {
            config: self.rng.choice(rho_shifts(len(_config(config)["cartan"])))
            for config in LADDER_CONFIGS
        }
        self.commands = [
            _argv(config, template, shift[config])
            for config, templates in LADDER
            for template in templates
        ]
        self.rng.shuffle(self.commands)

    def run_pass(self, job) -> None:
        for argv in self.commands:
            command_job(job, argv, self.expected, self.tracer)


WORKLOADS = {w.name: w for w in (GroupTables, KTypeBox, CliLadder)}
