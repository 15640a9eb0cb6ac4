"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record_expected.py

Runs every command line a workload can draw, for any seed, as
``python -m dischar`` and stores its exit code and the SHA-256 of its
stdout; also stores the ktype-box results that have no cheap oracle.  The
outputs must stay byte-identical, so rerun this only when an output is
meant to change.
"""

import json

import checkout

checkout.use_src()

import workloads  # noqa: E402

expected = {"cli": {}, "ktype-box": {}}
for argv in workloads.all_cli_commands():
    proc = workloads.run_cli(argv)
    expected["cli"][" ".join(argv)] = workloads.cli_digest(proc)

ktype = workloads.KTypeBox(seed=0)
ktype.setup()
expected["ktype-box"]["B3_table_sha256"] = workloads.table_digest(ktype.b3_table())
expected["ktype-box"]["F4_multiplicity"] = ktype.f4_multiplicity()

workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
print(f"{len(expected['cli'])} command digests written to {workloads.EXPECTED_PATH.name}")
