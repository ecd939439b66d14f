"""The committed bit ledger: a fresh run of tests/bitdigest.py must print
the digests tests/bits.json holds for this host (numpy version and BLAS
kernel). A change that keeps every bit passes unchanged; one that accepts
new bits regenerates the ledger with `python tests/bitdigest.py --write`
and says which digests moved and why."""

import json

import pytest

import bitdigest


@pytest.mark.parametrize("name", bitdigest.NAMES)
def test_digest_matches_the_ledger(name):
    key = bitdigest.host()
    ledger = json.loads(bitdigest.LEDGER.read_text())
    if key not in ledger:
        pytest.skip(f"the ledger has no entry for this host ({key}); "
                    f"hosts with one: {sorted(ledger)}")
    assert bitdigest.line_digest(name) == ledger[key][name]
