"""Rewrite the golden record of the sweeps' output bytes for this host's OpenBLAS core.

    PYTHONPATH=src python tests/golden/rewrite.py

runs RUNS in a temporary directory and writes `tests/golden/<openblas_corename>.json`:
per run its exit code, the `failures` of its manifest and the SHA-256 of every output
file.  The manifest is hashed without `environment` and `output_dir`, which differ
between hosts and directories.  LAPACK's bits depend on the OpenBLAS kernels, so
each core name has its own record; `tests/test_golden.py` compares a fresh run with
the record of the host's core.  A change that moves a bit reruns this script, and
the record's diff names every moved file.
"""
import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from krylovlab import runio  # noqa: E402
from krylovlab.cli import main  # noqa: E402
from krylovlab._openblas import _library  # noqa: E402
from test_cli import TINY_GRIDS  # noqa: E402

# the tiny grids at two seeds, and ipr and spread (which call every LAPACK and BLAS
# routine of a sweep between them) on sizes that run on 1 thread and on 2
ACROSS_THE_CUT = ["--sizes", "145", "256", "--reals", "3", "--seed", "7"]
RUNS = {
    **{f"{experiment}-seed{seed}": [experiment, *grid, "--seed", str(seed)]
       for experiment, grid in TINY_GRIDS.items() for seed in (7, 54)},
    "ipr-N145-256": ["ipr", "--gamma", "0.5", "3.0", *ACROSS_THE_CUT],
    "spread-N145-256": ["spread", "--gamma", "0.0", "3.0", *ACROSS_THE_CUT],
}


def corename() -> str | None:
    try:
        return _library().scipy_openblas_get_corename().decode()
    except RuntimeError:
        return None


def record_path(core: str) -> Path:
    return HERE / f"{core}.json"


def run_record(name: str, tmp: Path) -> dict:
    """Exit code, failures and output-file hashes of RUNS[name], run into tmp."""
    out = tmp / name
    code = main([*RUNS[name], "--out", str(out)])
    manifest = json.loads((out / runio.MANIFEST_NAME).read_text())
    for key in ("environment", "output_dir"):
        del manifest[key]
    files = {str(p.relative_to(out)): runio.file_sha256(p) for p in runio.output_files(out)}
    files[runio.MANIFEST_NAME] = hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    return {"exit_code": code, "failures": manifest.get("failures", []), "files": files}


def main_rewrite() -> Path:
    core = corename()
    if core is None:
        raise SystemExit("no scipy OpenBLAS here, so no core name to record")
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_record(name, Path(tmp)) for name in RUNS}
    path = record_path(core)
    path.write_text(json.dumps({"openblas_corename": core, "runs": runs},
                               indent=1, sort_keys=True) + "\n")
    return path


if __name__ == "__main__":
    print(f"wrote {main_rewrite()}")
