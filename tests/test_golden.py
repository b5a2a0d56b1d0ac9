"""Reference outputs pinned byte for byte.

The sha256 of four command outputs, taken through cli.main: the full
verification report, the genus-3 class at d = 200 and two coefficient
series with their fits at order 200. A change that claims to leave every
result as it was is checked here, not asserted.
"""

import hashlib

import pytest

from delliptic.cli import main

GOLDEN = {
    "verify --max-d 30 --N 30 --json":
        "2bfaf315699502c86e36e0dee0458c1b2839fc633ba561e3717d500518637135",
    "class m3 --d 200 --json":
        "fc62ca77fd94df9acd6894b7e41a5621f30bbc0baf6a222c1f58f952f33ee0cb",
    "series m3 lambda^2 --N 200 --json":
        "ae4aed69abf43b633204ce5b404db0c2bb4430e4692b9a2e79a565a641be5d93",
    "series m2e delta_00 --N 200 --json":
        "ae2bb937d075b689daaa606c8059b92d64175557019decc3b616f7e416821ff3",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_output_digest(capsys, command):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[command]
