"""The package and the CLI import only the layers a caller uses."""

import json
import subprocess
import sys

import pytest

import dischar

# the public names callers import from the package (weyl_order is checked below)
EXPORTS = (
    "BoxTooLarge", "ClosedOrbit", "CompactGrading",
    "DimensionMismatch", "DischarError", "FormalCharacter", "GroupTooLarge",
    "HomologyTable", "IncompleteAssignment", "InvariantViolation", "KTypeTable",
    "KWeylData", "NotAntidominant", "NotCompatible", "NotFiniteType", "NotIntegral",
    "NotStronglyAntidominant", "ParameterIncompatible", "PartitionTableTooLarge",
    "Root", "RootSystem", "TruncationTooLarge", "ValidationError",
    "Weight", "WeylElement", "WeylGroup", "act",
    "bgg_terms", "blattner_multiplicity", "build_grading", "build_root_system",
    "bwb_cohomology", "collapse", "coroot_pairing",
    "discrete_numerator", "enumerate_closed_orbits",
    "euler_character", "filtration_oracle", "filtration_table",
    "freudenthal_character", "generate", "kostant_table", "kostant_via_bgg",
    "ktype_table", "partition", "partition_p",
    "schmid_table", "schmid_via_trauber", "times_denominator", "trauber_terms",
    "validate_grading", "weyl_denominator", "weyl_k", "weyl_numerator",
)

A2_MIXED = {"cartan": [[2, -1], [-1, 2]], "compact_simple": [True, False],
            "lambda": ["-2", "-1"], "nu_box": [["-3", "-3"], ["0", "0"]]}

SHARED = {"dischar", "dischar.cli", "dischar.errors", "dischar.orbits",
          "dischar.realform", "dischar.rootdata", "dischar.weyl"}
LAYOUT = [
    (["describe"], SHARED),
    (["orbits"], SHARED),
    (["kostant", "--lambda=-1,-1"], SHARED | {"dischar.homology"}),
    (["schmid"], SHARED | {"dischar.homology"}),
    (["character", "--which", "denominator"], SHARED | {"dischar.characters"}),
    (["character", "--which", "weyl", "--lambda=-1,-1"], SHARED | {"dischar.characters"}),
    (["character", "--which", "discrete"], SHARED | {"dischar.characters"}),
    (["blattner", "--verify"], SHARED | {"dischar.blattner"}),
    (["verify"], SHARED | {"dischar.blattner", "dischar.characters", "dischar.homology",
                           "dischar.verify"}),
]

# dataclasses imports inspect, ast, dis and tokenize (about 10 ms); the records
# are NamedTuples so that no command pays for them
HEAVY = ("dataclasses", "inspect")

CHILD = """
import contextlib, io, json, sys
from dischar.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("dischar")),
                  sorted(m for m in %r if m in sys.modules)]))
""" % (HEAVY,)


def _loaded_by(code, argv=()):
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv,expected", LAYOUT, ids=[" ".join(a) for a, _ in LAYOUT])
def test_each_command_loads_only_its_layers(tmp_path, argv, expected):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(A2_MIXED))
    code, modules, heavy = _loaded_by(CHILD, [*argv, "--config", str(path)])
    assert code == 0
    assert set(modules) == expected
    # verify loads every layer, so its row covers the whole package
    assert heavy == []


def test_importing_the_package_loads_no_layer():
    code = "import json, sys, dischar; print(json.dumps(sorted(sys.modules)))"
    assert [m for m in _loaded_by(code) if m.startswith("dischar")] == ["dischar"]


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_resolves(name):
    value = getattr(dischar, name)
    namespace = {}
    exec(f"from dischar import {name}", namespace)
    assert namespace[name] is value
    assert name in dir(dischar)


def test_star_import_gives_every_export():
    namespace = {}
    exec("from dischar import *", namespace)
    assert set(EXPORTS) <= namespace.keys()


def test_submodules_and_unknown_names():
    namespace = {}
    exec("from dischar import verify", namespace)
    assert namespace["verify"].__name__ == "dischar.verify"
    assert dischar.weyl_order is dischar.weyl.weyl_order
    with pytest.raises(AttributeError):
        dischar.no_such_name
    with pytest.raises(ImportError):
        exec("from dischar import no_such_name", {})
