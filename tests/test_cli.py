import contextlib
import io
import itertools
import json
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dischar import build_grading, build_root_system, enumerate_closed_orbits, generate, weyl_k
from dischar.cli import (COMMANDS, FLAGS, MAX_NUMBER_CHARS, MAX_RANK, OPTIONS, _fraction, main,
                         parse_config, run)
from dischar.errors import GroupTooLarge, ParameterIncompatible
from dischar.weyl import MAX_WEYL_ORDER
from tests.conftest import CARTAN, E7, EXTRA_CARTAN


def canonical_dict(config):
    """The JSON form of ``config`` that ``parse_config`` reads back."""
    data = {"cartan": [list(row) for row in config.cartan],
            "compact_simple": list(config.compact_simple)}
    if config.lam is not None:
        data["lambda"] = config.lam.serialize()
    if config.nu_box is not None:
        data["nu_box"] = [[str(c) for c in corner] for corner in config.nu_box]
    if config.orbit_index is not None:
        data["orbit_index"] = config.orbit_index
    return data


A1_NC = {"cartan": [[2]], "compact_simple": [False], "lambda": ["-2"],
         "nu_box": [["-9"], ["0"]]}
A2_MIXED = {"cartan": [[2, -1], [-1, 2]], "compact_simple": [True, False],
            "lambda": ["-2", "-1"], "nu_box": [["-8", "-8"], ["0", "0"]]}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_config_roundtrip():
    config = parse_config(A2_MIXED)
    assert parse_config(canonical_dict(config)) == config
    full = parse_config(dict(A2_MIXED, orbit_index=2))
    assert parse_config(canonical_dict(full)) == full


def test_config_roundtrip_with_rationals():
    from fractions import Fraction

    data = dict(A1_NC, **{"lambda": ["-5/2"]})
    config = parse_config(data)
    assert config.lam.coords[0] == Fraction(-5, 2)
    assert parse_config(canonical_dict(config)) == config


def test_describe_a1_noncompact():
    code, output = run("describe", parse_config(A1_NC))
    assert code == 0
    data = json.loads(output)
    assert data["q"] == 1
    assert data["weyl_order"] == 2
    assert data["wk_order"] == 1
    assert data["closed_orbits"] == 2


@pytest.mark.parametrize("name", sorted(CARTAN) + ["D4", "F4"])
def test_describe_counts_one_closed_orbit_per_wk_coset(name):
    # describe reads |W| / |W_K|; the orbits themselves must number the same
    cartan = dict(CARTAN, **EXTRA_CARTAN)[name]
    rs = build_root_system(cartan)
    group = generate(rs)
    for compact in itertools.product((True, False), repeat=rs.rank):
        grading = build_grading(rs, tuple(1 if c else -1 for c in compact))
        kdata = weyl_k(rs, grading, group)
        _code, output = run("describe", parse_config({"cartan": cartan,
                                                     "compact_simple": list(compact)}))
        count = json.loads(output)["closed_orbits"]
        assert count == len(enumerate_closed_orbits(rs, grading, group, kdata)), compact


def test_orbits_output_shape():
    code, output = run("orbits", parse_config(A2_MIXED))
    assert code == 0
    data = json.loads(output)
    assert [o["u"] for o in data] == ["e", "s2", "s2*s1"]
    assert all(len(o["strata"]) == 2 for o in data)


def test_kostant_json():
    code, output = run("kostant", parse_config(A2_MIXED))
    assert code == 0
    data = json.loads(output)
    assert set(data) == {"0", "1", "2", "3"}


def test_schmid_orbit_selection():
    config = parse_config(dict(A2_MIXED, orbit_index=1))
    code, output = run("schmid", config)
    assert code == 0
    assert json.loads(output)["orbit"] == "s2"


def test_schmid_orbit_out_of_range():
    config = parse_config(dict(A2_MIXED, orbit_index=7))
    with pytest.raises(ParameterIncompatible):
        run("schmid", config)


def test_character_denominator_sorted():
    from fractions import Fraction

    code, output = run("character", parse_config(A2_MIXED)._replace(which="denominator"))
    assert code == 0
    terms = json.loads(output)["terms"]
    weights = [tuple(Fraction(c) for c in t["weight"]) for t in terms]
    assert weights == sorted(weights)
    assert {"weight": ["0", "0"], "coeff": 1} in terms


def test_character_discrete_records_sign():
    code, output = run("character", parse_config(A2_MIXED)._replace(which="discrete"))
    assert code == 0
    data = json.loads(output)
    assert data["sign"] == 1  # q = 2
    assert len(data["terms"]) == 2


def test_blattner_tsv_with_oracle():
    code, output = run("blattner", parse_config(A1_NC)._replace(with_oracle=True), fmt="tsv")
    assert code == 0
    lines = output.strip().split("\n")
    assert lines[0] == "nu\tmultiplicity\toracle"
    assert "-3\t1\t1" in lines


def test_blattner_json_types():
    code, output = run("blattner", parse_config(A1_NC)._replace(with_oracle=True))
    assert code == 0
    entries = json.loads(output)
    assert {"nu": ["-3"], "multiplicity": 1, "oracle": 1} in entries
    assert all(isinstance(e["multiplicity"], int) for e in entries)


def test_run_verify_passes():
    code, output = run("verify", parse_config(A2_MIXED))
    assert code == 0
    assert output.endswith("9/9 properties hold\n")


def test_outputs_deterministic():
    for command in ("describe", "orbits", "kostant", "schmid", "blattner"):
        first = run(command, parse_config(A2_MIXED))
        second = run(command, parse_config(A2_MIXED))
        assert first == second


def test_main_error_object_for_bad_cartan(tmp_path, capsys):
    path = write_config(tmp_path, {"cartan": [[2, -2], [-2, 2]], "compact_simple": [True, True]})
    code = main(["describe", "--config", path])
    assert code == 1
    data = json.loads(capsys.readouterr().out.strip())
    assert data["error"] == "NotFiniteType"


def test_main_missing_lambda(tmp_path, capsys):
    path = write_config(tmp_path, {"cartan": [[2]], "compact_simple": [False]})
    code = main(["kostant", "--config", path])
    assert code == 1
    data = json.loads(capsys.readouterr().out.strip())
    assert data["error"] == "ParameterIncompatible"


def test_main_lambda_and_box_flags(tmp_path, capsys):
    path = write_config(tmp_path, {"cartan": [[2]], "compact_simple": [False]})
    code = main(["blattner", "--config", path, "--lambda=-2", "--box=-9..0", "--format", "tsv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "nu\tmultiplicity"
    assert "-5\t1" in out


@pytest.mark.parametrize("command,config_entries,flags", [
    ("kostant", {"lambda": []}, ["--lambda="]),
    ("blattner", {"lambda": [], "nu_box": [[], []]}, ["--box=", "--lambda="]),
], ids=["kostant", "blattner"])
def test_rank_zero_flags_read_empty_text_as_the_empty_vector(
        tmp_path, capsys, command, config_entries, flags):
    rank_zero = {"cartan": [], "compact_simple": []}
    extra = ["--verify"] if command == "blattner" else []
    assert main([command, "--config", write_config(tmp_path, rank_zero, "flags.json")]
                + flags + extra) == 0
    from_flags = capsys.readouterr().out
    path = write_config(tmp_path, dict(rank_zero, **config_entries), "config.json")
    assert main([command, "--config", path] + extra) == 0
    assert from_flags == capsys.readouterr().out


@pytest.mark.parametrize("flag,message", [
    ("--lambda=", "lambda length differs from rank"),
    ("--box=", "nu_box endpoints must have one entry per rank"),
])
def test_empty_flag_text_on_rank_one_is_a_rank_mismatch(tmp_path, capsys, flag, message):
    assert main(["blattner", "--config", write_config(tmp_path, A1_NC), flag]) == 1
    assert json.loads(capsys.readouterr().out.strip()) == {
        "error": "ParameterIncompatible", "message": message
    }


def test_cli_subprocess_verify_byte_identical(tmp_path):
    path = write_config(tmp_path, A2_MIXED)
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "dischar", "verify", "--config", path],
            capture_output=True,
            check=False,
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "overrides,flags",
    [
        ({}, ["--lambda=abc"]),
        ({}, ["--lambda=1/0"]),
        (A2_MIXED, ["--box=-1..x,0..0"]),
        ({"lambda": ["x"]}, []),
        ({"nu_box": [1]}, []),
        ({"compact_simple": 1}, []),
        ({"orbit_index": True}, []),
        ({}, ["--lambda=-1,-2"]),
    ],
    ids=[
        "lambda-flag-not-a-number",
        "lambda-flag-zero-denominator",
        "box-flag-not-a-number",
        "lambda-entry-not-a-number",
        "nu-box-not-a-pair",
        "compact-simple-not-a-list",
        "orbit-index-boolean",
        "lambda-flag-wrong-rank",
    ],
)
def test_main_rejects_malformed_input(tmp_path, capsys, overrides, flags):
    path = write_config(tmp_path, dict(A1_NC, **overrides))
    code = main(["blattner", "--config", path] + flags)
    assert code == 1
    data = json.loads(capsys.readouterr().out.strip())
    assert data["error"] == "ParameterIncompatible"
    assert data["message"]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "text", ["-1e5000", "1e999999999", "-" + "7" * 5000],
    ids=["exponent", "huge-exponent", "5000-digit-literal"],
)
def test_main_bounds_numeric_text(tmp_path, capsys, source, text):
    overrides = {"lambda": [text]} if source == "config" else {}
    flags = [f"--lambda={text}"] if source == "flag" else []
    path = write_config(tmp_path, dict(A1_NC, **overrides))
    assert main(["kostant", "--config", path] + flags) == 1
    data = json.loads(capsys.readouterr().out.strip())
    assert data["error"] == "ParameterIncompatible"
    assert data["message"]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["kostant", "schmid", "describe"])
def test_main_refuses_lambda_outside_half_integers(tmp_path, capsys, command, source):
    # refused when the configuration is parsed, like a lambda of the wrong rank
    overrides = {"lambda": ["-1/3", "-1"]} if source == "config" else {}
    flags = ["--lambda=-1/3,-1"] if source == "flag" else []
    path = write_config(tmp_path, dict(A2_MIXED, **overrides))
    assert main([command, "--config", path] + flags) == 1
    assert json.loads(capsys.readouterr().out.strip()) == {
        "error": "NotIntegral", "message": "weight coordinate -1/3 is not a multiple of 1/2"
    }


@pytest.mark.parametrize("entry", [None, True, False], ids=["null", "true", "false"])
@pytest.mark.parametrize("field", ["lambda", "nu_box"])
def test_main_refuses_json_literals_as_numbers(tmp_path, capsys, field, entry):
    # str() of these reads "None", "True" and "False"; none is exponent notation
    if field == "lambda":
        overrides = {"lambda": [entry, "-1"]}
    else:
        overrides = {"nu_box": [[entry, "-8"], ["0", "0"]]}
    path = write_config(tmp_path, dict(A2_MIXED, **overrides))
    assert main(["blattner", "--config", path]) == 1
    data = json.loads(capsys.readouterr().out.strip())
    assert data["error"] == "ParameterIncompatible"
    assert re.fullmatch(rf"{field} entry {entry!r} is not an exact number", data["message"])


def _diagonal(n):
    return [[2 if i == j else 0 for j in range(n)] for i in range(n)]


def _type_a(n):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "cartan", [E7, _diagonal(40), _type_a(200)], ids=["E7", "A1x40", "A200"]
)
def test_main_refuses_oversized_groups_within_a_second(tmp_path, capsys, cartan):
    compact = [True] * (len(cartan) - 1) + [False]
    path = write_config(tmp_path, {"cartan": cartan, "compact_simple": compact})
    start = time.perf_counter()
    assert main(["describe", "--config", path]) == 1
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out.strip())["error"] == "GroupTooLarge"


def test_rank_bound_matches_the_weyl_order_bound():
    # |W| >= 2^rank, so MAX_RANK is the largest rank generate's bound can admit
    assert 2 ** MAX_RANK <= MAX_WEYL_ORDER < 2 ** (MAX_RANK + 1)
    assert len(parse_config({"cartan": _diagonal(MAX_RANK)}).cartan) == MAX_RANK
    with pytest.raises(GroupTooLarge, match=f"^rank {MAX_RANK + 1} gives"):
        parse_config({"cartan": _diagonal(MAX_RANK + 1)})


HUGE = "-100000000000000000000000"  # an axis longer than sys.maxsize


def test_an_empty_axis_beside_a_huge_one_is_an_empty_box(tmp_path, capsys):
    path = write_config(tmp_path, A2_MIXED)
    assert main(["blattner", "--config", path, f"--box=0..-1,{HUGE}..0"]) == 0
    huge = capsys.readouterr().out
    assert main(["blattner", "--config", path, "--box=0..-1,-1..0"]) == 0
    assert huge == capsys.readouterr().out


G2_MIXED = {"cartan": [[2, -1], [-3, 2]], "compact_simple": [True, False],
            "lambda": ["-2", "-2"]}


@pytest.mark.parametrize(
    "data,flags,error",
    [
        (A2_MIXED, ["--box=-1000..0,-1000..0"], "BoxTooLarge"),
        # len() of a range this long overflows; the axes are counted without one
        (A1_NC, [f"--box={HUGE}..0"], "BoxTooLarge"),
        (dict(A1_NC, nu_box=[[HUGE], ["0"]]), [], "BoxTooLarge"),
        (A1_NC, ["--box=-20000001..-20000001"], "PartitionTableTooLarge"),
        # the closed formula needs a small table here; the oracle would walk
        # 57 M multisets up to level 190
        (G2_MIXED, ["--box=-1..-1,-100..-100", "--verify"], "TruncationTooLarge"),
    ],
    ids=["box-points", "huge-axis-flag", "huge-axis-config", "partition-table",
         "oracle-level"],
)
def test_main_refuses_oversized_work(tmp_path, capsys, data, flags, error):
    path = write_config(tmp_path, data)
    code = main(["blattner", "--config", path] + flags)
    assert code == 1
    out = json.loads(capsys.readouterr().out.strip())
    assert out["error"] == error
    assert out["message"]


def test_denominator_reuses_the_closed_group(tmp_path, capsys, monkeypatch):
    import dischar.characters
    import dischar.cli

    # weyl_denominator takes the group as an argument and cannot close it again
    assert not hasattr(dischar.characters, "generate")
    closed = []

    def counted(rs):
        closed.append(rs)
        return generate(rs)

    monkeypatch.setattr(dischar.cli, "generate", counted)
    path = write_config(tmp_path, A2_MIXED)
    assert main(["character", "--which", "denominator", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["terms"]
    assert len(closed) == 1


@pytest.mark.parametrize(
    "raw",
    [
        b'{"cartan": [[2]], "compact_simple": [false], "lambda": ["-\xff2"]}',
        b"[" * 200_000 + b"]" * 200_000,
        b'{"cartan": [[' + b"1" * 5000 + b"]]}",
    ],
    ids=["not-utf8", "nested-200000-deep", "integer-past-digit-limit"],
)
def test_main_reports_unreadable_config(tmp_path, capsys, raw):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    assert main(["describe", "--config", str(path)]) == 1
    data = json.loads(capsys.readouterr().out.strip())
    assert data["error"] == "ConfigUnreadable"
    assert data["message"]


def test_blattner_checks_lambda_on_an_empty_box(tmp_path, capsys):
    path = write_config(tmp_path, A1_NC)
    outputs = []
    for box in ("--box=1..0", "--box=-9..0"):
        assert main(["blattner", "--config", path, "--lambda=0", box]) == 1
        outputs.append(json.loads(capsys.readouterr().out.strip()))
    assert outputs[0] == outputs[1]
    assert outputs[0] == {
        "error": "NotStronglyAntidominant", "message": "parameter must be strongly antidominant"
    }


def _parser_vocabulary():
    """(option, choices or None, takes a value) for every option but --config and help."""
    return [(name, choices, True) for name, choices in OPTIONS.items() if name != "--config"] + [
        (name, None, False) for name in FLAGS if name not in ("-h", "--help")
    ]


CARTANS = [
    [[2]],
    [[2, 0], [0, 2]],
    [[2, -1], [-1, 2]],
    [[2, -2], [-1, 2]],
    [[2, -1], [-3, 2]],
    [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
]
EXACT = st.one_of(
    st.integers(-4, 1).map(str), st.sampled_from(["-1/2", "-5/2", "1/0", "x", "", "-2.5"])
)
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=True),
    st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
FLAG_TEXT = st.text(alphabet="-0123.,/xeE", max_size=8)


def _mostly(good, bad):
    """``good`` three times in four, so most runs get past the input checks."""
    return st.integers(0, 3).flatmap(lambda k: good if k else bad)


def _vector(rank):
    return _mostly(
        st.lists(EXACT, min_size=rank, max_size=rank),
        st.one_of(st.lists(st.one_of(EXACT, st.integers(-4, 2), JUNK), max_size=4), JUNK),
    )


def _interval():
    return st.integers(-3, 0).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo - 1, 0)))


@st.composite
def fuzzed_runs(draw):
    """A JSON config of rank <= 3 and a command line from the parser's flags."""
    cartan = draw(_mostly(st.sampled_from(CARTANS), st.one_of(JUNK, st.lists(JUNK, max_size=3))))
    rank = len(cartan) if isinstance(cartan, list) else 1
    config = {"cartan": cartan}
    intervals = st.lists(_interval(), min_size=rank, max_size=rank)
    fields = {
        "compact_simple": _mostly(
            st.lists(st.booleans(), min_size=rank, max_size=rank),
            st.one_of(st.lists(st.booleans(), max_size=4), JUNK),
        ),
        "lambda": _vector(rank),
        "nu_box": _mostly(
            intervals.map(lambda box: [[str(lo) for lo, _ in box], [str(hi) for _, hi in box]]),
            st.one_of(st.lists(_vector(rank), max_size=3), JUNK),
        ),
        "orbit_index": _mostly(st.integers(-1, 3), JUNK),
    }
    for key, strategy in fields.items():
        if draw(st.booleans()):
            config[key] = draw(strategy)
    if not draw(st.integers(0, 19)):
        config = draw(JUNK)
    values = {
        "--lambda": _mostly(st.lists(EXACT, min_size=rank, max_size=rank).map(",".join), FLAG_TEXT),
        "--box": _mostly(
            intervals.map(lambda box: ",".join(f"{lo}..{hi}" for lo, hi in box)), FLAG_TEXT
        ),
        "--orbit": _mostly(st.integers(-1, 3).map(str), FLAG_TEXT),
    }
    argv = [draw(st.sampled_from(COMMANDS))]
    for option, choices, takes_value in _parser_vocabulary():
        if not draw(st.booleans()):
            continue
        if not takes_value:
            argv.append(option)
            continue
        if choices is not None:
            value = draw(st.sampled_from(list(choices)))
        else:
            value = draw(values.get(option, FLAG_TEXT))
        # both spellings of an option with a value
        argv += [option, value] if draw(st.booleans()) else [f"{option}={value}"]
    return config, argv


@settings(max_examples=150, deadline=None)
@given(fuzzed_runs())
def test_main_fuzzed_configs_and_flags(run_case):
    """Exit 0, 1 with one JSON error object, or 2; never a traceback."""
    config, argv = run_case
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--config", path])
    assert code in (0, 1, 2)
    if code == 1:
        data = json.loads(out.getvalue())
        assert isinstance(data, dict)
        assert set(data) == {"error", "message"}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from([*COMMANDS, *OPTIONS, *FLAGS, "--conf", "--verif", "-", "--", "=", "x",
                     "--lambda=-2", "--box=-3..0", "--orbit=0", "--which=discrete", "-2"]),
    st.sampled_from([c for choices in OPTIONS.values() if choices for c in choices]),
    st.text(max_size=4),
), max_size=6), st.booleans())
def test_main_any_argv_exits_with_a_code(tmp_path_factory, argv, with_config):
    """Whatever the words, main returns 0, 1 with one JSON object, or 2; it never exits."""
    path = write_config(tmp_path_factory.mktemp("argv"), A1_NC)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv + (["--config", path] if with_config else []))
    assert err.getvalue() == ""
    assert code in (0, 1, 2)
    if code == 1:
        assert set(json.loads(out.getvalue())) == {"error", "message"}


def _one_error_object(capsys):
    """The one JSON error object a refused command prints, with nothing on stderr."""
    out, err = capsys.readouterr()
    assert err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    data = json.loads(out)
    assert set(data) == {"error", "message"}
    return data


CONFIG = "{config}"  # stands for the path of a readable configuration
USAGE_ERRORS = [
    (["describe", CONFIG, "--bogus"], "unknown option '--bogus'"),
    (["describe", "--conf", "x.json"], "unknown option '--conf'"),
    (["character", CONFIG, "--wh", "weyl"], "unknown option '--wh'"),
    (["blattner", CONFIG, "--verif"], "unknown option '--verif'"),
    (["describe", CONFIG, "-x"], "unknown option '-x'"),
    (["describe", CONFIG, "--"], "unknown option '--'"),
    (["blattner", CONFIG, "--verify=yes"], "option --verify takes no value"),
    (["describe", CONFIG, "--help=1"], "option --help takes no value"),
    (["describe", CONFIG, "--format"], "option --format needs a value"),
    (["describe", "--config"], "option --config needs a value"),
    (["describe", CONFIG, "--format", "xml"], "option --format must be one of json, tsv"),
    (["character", CONFIG, "--which=all"],
     "option --which must be one of denominator, weyl, discrete"),
    (["schmid", CONFIG, "--orbit", "x"], "option --orbit must be an integer"),
    (["schmid", CONFIG, "--orbit=1.0"], "option --orbit must be an integer"),
    ([CONFIG], "a command is required: one of " + ", ".join(COMMANDS)),
    ([], "a command is required: one of " + ", ".join(COMMANDS)),
    (["draw", CONFIG], "unknown command 'draw'"),
    (["Describe", CONFIG], "unknown command 'Describe'"),
    (["describe"], "option --config is required"),
    (["describe", "orbits", CONFIG], "unexpected word 'orbits' after 'describe'"),
    (["describe", CONFIG, "extra"], "unexpected word 'extra' after 'describe'"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "empty" for argv, _ in USAGE_ERRORS])
def test_usage_errors_exit_1_with_one_error_object(tmp_path, capsys, argv, message):
    path = write_config(tmp_path, A2_MIXED)
    argv = [part for word in argv
            for part in (["--config", path] if word == CONFIG else [word])]
    assert main(argv) == 1
    assert _one_error_object(capsys) == {"error": "ParameterIncompatible", "message": message}


def test_usage_error_through_the_module(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "dischar", "describe", "--conf", "x.json"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == "ParameterIncompatible"


# the command line is read in order, so help given before an error wins
@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "--config", "missing.json", "-h"],
                                  ["describe", "--help", "--bogus"]])
def test_help_names_every_command_and_option(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    words = [*COMMANDS, *OPTIONS, *FLAGS]
    words += [choice for choices in OPTIONS.values() if choices for choice in choices]
    assert [word for word in words if word not in out] == []


def test_option_spellings_and_positions_agree(tmp_path, capsys):
    path = write_config(tmp_path, A2_MIXED)
    spellings = [
        ["blattner", "--config", path, "--lambda=-2,-1", "--box=-3..0,-3..0", "--verify"],
        ["blattner", "--config", path, "--lambda", "-2,-1", "--box", "-3..0,-3..0", "--verify"],
        ["--verify", "--box", "-3..0,-3..0", "--config=" + path, "blattner", "--lambda", "-2,-1"],
        # the last value given wins
        ["blattner", "--config", path, "--lambda=-9,-9", "--lambda", "-2,-1",
         "--box=0..0,0..0", "--box=-3..0,-3..0", "--verify"],
    ]
    outputs = []
    for argv in spellings:
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1:] == outputs[:1] * 3
    assert '"oracle"' in outputs[0]


EDGE_NUMBERS = ["-3", "+3", " 4 ", "\t-5\n", "1_000", "1__0", "_1", "1_", "007", "-0", "+0",
                "3.", ".5", "-.5", "3.5", "1/2", " -1 / 2 ", "1/0", "0/0", "p/q", "1/-2",
                "\u0663", "-\u0661/\u0662", "\u00a03", "1.5/2", "", " ", "+-1", "--1"]


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.from_regex(r"\A\s?[-+]?\d*(_\d)?\.?\d*(_\d)?(\s?/\s?[-+]?\d*(_\d)?)?\s?\Z"),
    st.text(alphabet=" \t_+-./0123456789\u0663\u00a0", max_size=7),
    st.text(max_size=5),
))
def test_fraction_reads_exactly_what_fraction_reads(text):
    """``cli._fraction`` tries int() first; it must still accept exactly what Fraction does."""
    from fractions import Fraction

    _fraction_agrees(text, Fraction)


@pytest.mark.parametrize("text", EDGE_NUMBERS)
def test_fraction_edge_numbers(text):
    from fractions import Fraction

    _fraction_agrees(text, Fraction)


def _fraction_agrees(text, fraction):
    try:
        expected = fraction(text)
    except (ValueError, ZeroDivisionError):
        expected = None
    if "e" in text or "E" in text or len(text) > MAX_NUMBER_CHARS:
        expected = None  # refused before it is parsed
    try:
        got = _fraction(text, "lambda")
    except ParameterIncompatible:
        got = None
    assert got == expected
    assert type(got) in (int, fraction, type(None))
