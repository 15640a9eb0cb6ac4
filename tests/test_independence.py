"""Each oracle reaches none of the code it checks, by a static call graph.

The graph is built with ``ast`` over ``src/dischar``.  Its nodes are the
module-level functions and classes, named ``module.name``; a class stands
for its whole body, methods included.  An edge is an ``ast.Call`` anywhere
inside a node whose callee is a bare name that resolves through the calling
module's own namespace: its module-level defs and its ``from .x import y``
lines, followed to the module that defines the name.  Method calls
(``obj.f()``), operators and functions passed as values are not followed, so
the graph can miss an edge.  A local name that shadows an imported or
module-level one can only add edges, which makes the pins below stricter.

``weyl.dot_orbit``, ``KWeylData.orbit`` and ``weyl.act`` share one reflection
kernel (``weyl.reflect``, ``weyl.close``, ``weyl.sweep``, ``weyl.act_twice``)
on purpose, so none of them checks another; their oracle is the dense-matrix
closure of ``tests/matrix_oracle.py``.  The two oracles that keep reflection
arithmetic of their own, Freudenthal's formula and the Borel-Weil-Bott
chamber walk, are pinned below to reach none of that kernel.

``characters.weyl_denominator`` and ``verify``'s character identity share
the factor loop ``characters.times_denominator`` on purpose; the Weyl-group
sum inside ``weyl_denominator`` is its oracle on every call.  The two sides
it is checked against, Freudenthal's formula and the Weyl numerator, are
pinned below to reach none of it.

The BGG and Trauber pipelines (``homology.kostant_via_bgg``,
``homology.schmid_via_trauber``) are re-derivations, not oracles.  They
share the tables' kernels on purpose: the BGG terms and the Kostant table
take their weights from one ``weyl.dot_orbit``, and the Trauber terms and
the Schmid table theirs, with the cell lengths, from one ``homology._cells``.
So ``verify``'s comparison of each pipeline with its table checks the
resolution positions and the ``collapse`` rule, not the reflection
arithmetic or the cells, and no pin below keeps the two apart; the degree
oracle of ``test_degree_oracle`` checks the tables' degrees from their
weights alone.

Both Blattner paths also put weights into root coordinates through the
``RootSystem.root_coords`` method, on purpose: that map is the lattice test,
and its own tests compare it with a rational solve.  The graph does not list
methods, so it is not in the ``SHARED`` lists below.
"""

import ast
from pathlib import Path

import pytest

import dischar

SOURCE = Path(dischar.__file__).parent


def _call_graph():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    defs = {
        name: {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        for name, tree in modules.items()
    }
    imports = {name: {} for name in modules}
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imports[name][alias.asname or alias.name] = (node.module, alias.name)

    def resolve(module, name):
        while name not in defs[module]:
            if name not in imports[module]:
                return None
            module, name = imports[module][name]
        return f"{module}.{name}"

    graph = {}
    for module, named in defs.items():
        for name, node in named.items():
            graph[f"{module}.{name}"] = {
                target
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                for target in [resolve(module, call.func.id)]
                if target is not None
            }
    return graph


GRAPH = _call_graph()


def reach(*starts):
    seen, stack = set(), list(starts)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(GRAPH[node])
    return seen


def blattner(*names):
    return {f"blattner.{name}" for name in names}


ORACLE_ENTRIES = blattner("filtration_oracle", "filtration_table")
CLOSED_ENTRIES = blattner("ktype_table", "blattner_multiplicity")
PINS = [
    (ORACLE_ENTRIES, blattner("_PartitionTable", "_closed_formula", "_alternating_terms",
                            "_reaches_cone", "_stepped_arguments", "partition", "partition_p")),
    (CLOSED_ENTRIES, blattner("bwb_cohomology", "_filtration_walk", "_check_walk_size",
                            "_filtration_level")),
    ({"characters.freudenthal_character"},
     {"weyl.generate", "weyl.dot_orbit", "characters.weyl_numerator"}),
    ({"characters.freudenthal_character", "characters.weyl_numerator"},
     {"characters.times_denominator"}),
    ({"characters.freudenthal_character", "blattner.bwb_cohomology"},
     {"weyl.reflection", "weyl.reflect", "weyl.close", "weyl.sweep",
      "weyl.act_twice"}),
]

# what the two Blattner paths share on purpose in their own module besides
# the root_coords method: the nu check, the box and the result record (the
# lam check is rootdata.check_schmid_parameter, the Schmid layer's own)
SHARED = [
    (("filtration_table", "ktype_table"),
     blattner("_box_points", "KTypeTable")),
    (("filtration_oracle", "blattner_multiplicity"),
     blattner("_check_nu")),
]


@pytest.mark.parametrize("starts,forbidden", PINS, ids=[" ".join(sorted(s)) for s, _ in PINS])
def test_oracle_never_reaches_what_it_checks(starts, forbidden):
    for start in starts:
        assert start in GRAPH
        assert not reach(start) & forbidden, start


@pytest.mark.parametrize("pair,shared", SHARED, ids=[" ".join(p) for p, _ in SHARED])
def test_blattner_paths_share_only_the_listed_helpers(pair, shared):
    oracle, closed = (reach(*blattner(name)) for name in pair)
    assert {n for n in oracle & closed if n.startswith("blattner.")} == shared


def test_pinned_and_shared_names_are_graph_nodes():
    # a renamed or deleted helper would otherwise drop out of its pin unseen
    named = [n for starts, forbidden in PINS for n in starts | forbidden]
    named += [n for pair, shared in SHARED for n in blattner(*pair) | shared]
    assert [n for n in named if n not in GRAPH] == []


def test_graph_reaches_the_kernel_from_its_users():
    # the pins above are not vacuous: the library's own sweeps do reach it
    assert "weyl.close" in reach("weyl.generate")
    assert {"weyl.close", "weyl.sweep", "weyl.reflect"} <= reach("realform.weyl_k")
    assert "weyl.sweep" in reach("weyl.dot_orbit")
    assert {"weyl.act_twice", "weyl.reflect"} <= reach("weyl.act")
    # the identity check calls the factor loop and, so that its oracle runs,
    # weyl_denominator, which calls the loop too
    assert "characters.times_denominator" in GRAPH["characters.weyl_denominator"]
    assert {"characters.times_denominator", "characters.weyl_denominator"} <= GRAPH[
        "verify._check_weyl_identity"]


def test_graph_follows_imports_and_only_calls():
    # module-level and function-local ``from .blattner`` lines are both followed
    assert "blattner._filtration_walk" in reach("verify.run_verify")
    assert {"blattner._closed_formula", "blattner._filtration_walk"} <= reach("cli._blattner")
    # Weight passes _half to map as a value, which is no edge; coroot_pairing calls it
    assert "rootdata._half" not in GRAPH["rootdata.Weight"]
    assert "rootdata._half" in GRAPH["rootdata.coroot_pairing"]
