"""Every output byte of a set of small sweeps, against the committed golden record.

The record (`tests/golden/<openblas_corename>.json`, written by
`tests/golden/rewrite.py`) holds the exit code, the failures and the SHA-256 of
every output file of each run in `rewrite.RUNS`.  A refactor that moves a last bit
of any table or summary fails here, not only in the benchmark's failure count.
LAPACK's bits depend on the OpenBLAS kernels, so a host whose core has no record
skips.
"""
import json

import pytest

from golden import rewrite


@pytest.mark.parametrize("name", rewrite.RUNS)
def test_a_fresh_run_matches_the_golden_record(tmp_path, name):
    core = rewrite.corename()
    if core is None or not rewrite.record_path(core).exists():
        pytest.skip(f"no golden record for OpenBLAS core {core}")
    recorded = json.loads(rewrite.record_path(core).read_text())["runs"][name]
    assert rewrite.run_record(name, tmp_path) == recorded
