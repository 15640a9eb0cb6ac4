"""Byte-for-byte CLI outputs on B3 and F4 real forms.

Each case pins the exit code and the SHA-256 of stdout for one command.
The digests were recorded from the Fraction-based implementation that
predates the integer lattice core, so any change in rendering, ordering
or arithmetic shows up here.
"""

import hashlib
import json

import pytest

from dischar.cli import main

CONFIGS = {
    "B3": {
        "cartan": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
        "compact_simple": [True, True, False],
        "lambda": ["-2", "-1", "-3"],
    },
    "F4": {
        "cartan": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
        "compact_simple": [True, True, True, False],
        "lambda": ["-2", "-1", "-1", "-3"],
    },
}

GOLDEN = [
    ("B3", "describe", 0, "9396a6d3fbf066d05dbd3fcd5892d4f83597fa66408d02adcf8cc4bccbfe7c3b"),
    ("B3", "orbits", 0, "923f38f3f435789a834e822c96b09309e8ffef06c0f17ccc198cbe471dec8806"),
    ("B3", "kostant", 0, "f23ee1a04caee1789c622e650c3bcf89ea140e74b6aefe27cf1a638a094f6857"),
    ("B3", "schmid", 0, "9a61736c39b70ea60e7cd9c9ae2733fb513547e62d70c112a5435284411deb5c"),
    ("B3", "character --which weyl", 0,
     "5c2447d5918e048fc10cc3497228a78c83cba5fab73cb2ee1efd786a57fb3703"),
    ("B3", "character --which discrete", 0,
     "0d37af9f237d51cd56878bf1a9b527cde94acc07ee7447a26a43f7cdac8a3eaf"),
    ("B3", "orbits --format tsv", 0,
     "c4b0554b0ed41de19694dc1a112293ddc05960903f2db29fb89d0cf5c480a54a"),
    ("F4", "describe", 0, "5759f606f1f8020a71bd5b0470eec0e5fa6a35c286fe2d1f80065f6f3bd7756c"),
    ("F4", "orbits", 0, "805f0be0088ce6a367e3b8f22995d8c2238bab28bb19f84d6548a82e27d8344b"),
    ("F4", "kostant", 0, "8223b7188b23466e92a2feb35fc0f0b5878fac6ebd8f294fb6fc15acd017f956"),
    ("F4", "schmid", 0, "6542dd8cd71e90651569e518717244cef2489572b9541fa18fbc518d219a0f9c"),
    ("F4", "character --which weyl", 0,
     "daa7e7b28bc2ab612b90dfff68ab6b478ad1de18ce71f00643b796e1197ba28d"),
    ("F4", "character --which discrete", 0,
     "72288eb85049effb01862a156fbf389fd4c9b91990fe5ac29ef2ea673782b30c"),
    ("F4", "orbits --format tsv", 0,
     "69ca939066c24a19f213e3a820ecddd849956c248553ab2f6156db8b8e73d737"),
    # K-type tables, recorded from the per-point closed formula with its
    # partition memo on the grading, before the one-table implementation
    ("B3", "blattner --box=-6..0,-6..0,-6..0", 0,
     "b5f3c59847bd67ea4b842eb0da9870263c5f7577e4a212851dac7f86c90bc0cb"),
    ("B3", "blattner --box=-3..0,-3..0,-3..0 --verify --lambda=-1,-1,-1", 0,
     "84b7abe982af125b7ed8fb10fb484ad829a4f6f2c059b7c678b0d319153647e3"),
    ("F4", "blattner --box=-2..0,-1..0,-1..0,-11..-9", 0,
     "52d63b70caae90739ad93799841d1a0929a24b22833ee8df48848c6bdd62e73b"),
    # TSV of every table command, the JSON denominator and the verify text,
    # recorded before the command table and the shared renderer
    ("B3", "describe --format tsv", 0,
     "3af847a753a8083561c2a4bd5ef807cd59b6edfcf4bba087041c48d7db221815"),
    ("B3", "kostant --format tsv", 0,
     "85ce6625834c131b443f6b76d7d4f1daae09a1115f9364e40d00320e0dc52f8e"),
    ("B3", "schmid --format tsv", 0,
     "cf14d84fd63a9feb2c53ef1d809352f87dff81eae7cea9843fec308a312136ba"),
    ("B3", "character --which weyl --format tsv", 0,
     "0c6202ee09eef1ecfeef17300dd2acfe5385752e6864896528ca620e714b8b3d"),
    ("B3", "character --which discrete --format tsv", 0,
     "8a219163cdd7f2603af541142e2e4166d3dabf41a029b27a82f89bd31ce0e274"),
    ("B3", "character --which denominator --format tsv", 0,
     "3f0ba33497e5e9361da26c3309d5990e7ba4c20f55751a40211423e9388ccdf3"),
    ("B3", "character --which denominator", 0,
     "721cc7872ac1ab8e9a4fe27344e7c1701625ae3c0272a3256201337286a21a4a"),
    ("B3", "blattner --box=-6..0,-6..0,-6..0 --format tsv", 0,
     "1a94dea04fe00e193301f51d974d35bf5b67bbe38cd58e94cec540250ac7d9ea"),
    ("B3", "blattner --box=-3..0,-3..0,-3..0 --verify --lambda=-1,-1,-1 --format tsv", 0,
     "8afc6b5df34978dd5197b1da17c72d224b128216378ae82bcc886f1ce544e2a6"),
    ("B3", "verify", 0,
     "7b5834b70572cd83b6096e3d4437f01211d90097e87d0b975952df6b2bdf8c9b"),
    ("F4", "describe --format tsv", 0,
     "00eda89409e3e8a34bb1b86b2ef3a7b7c607aab3c7d780c4c8e1b19bf1924ad3"),
    ("F4", "kostant --format tsv", 0,
     "c3cf4d54531833d0825cd7d50fa54dbcd61c6d8f0fff99b90f538c446a06e757"),
    ("F4", "schmid --format tsv", 0,
     "23030a2d5fc87b8e6a976c50461d883548fecc6d49870b5320d8bcc37f9dfc83"),
    ("F4", "character --which weyl --format tsv", 0,
     "42da733b7e14295143295238f2273a20b9ac3b58a7120a037f63f6ade90d97a7"),
    ("F4", "character --which discrete --format tsv", 0,
     "0578ac632b23d140af2d341a71ef50c0c8c392d513666da09e0fb6fe09d6ee97"),
    ("F4", "character --which denominator --format tsv", 0,
     "1668920acd49236c9234d86e65d52254e8cfce3c6546913fe89937cadd897651"),
    ("F4", "character --which denominator", 0,
     "548aa1d1e9ed1626c44ecff4c847708d8cd5621488ccfd70606b95ffd24bb23b"),
    ("F4", "blattner --box=-2..0,-1..0,-1..0,-11..-9 --format tsv", 0,
     "de95f5e18ba1c05d56d5bb05cc97da39e9d198e0f85cc6b46ac8b66ca99c41ec"),
    ("F4", "blattner --box=0..0,0..0,-1..0,-7..-5 --verify --lambda=-1,-1,-1,-1 --format tsv", 0,
     "f43922593852ce25329632dc57ec9ee2ac572e6c14d83b2b52e1bb48399a2f6f"),
]


@pytest.mark.parametrize("name,command,code,digest", GOLDEN)
def test_cli_output_matches_golden(tmp_path, capsys, name, command, code, digest):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONFIGS[name]))
    assert main(command.split() + ["--config", str(path)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
