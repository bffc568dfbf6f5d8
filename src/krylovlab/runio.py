"""File plumbing for experiment sweeps: cell CSVs, summaries, manifests, hashes.

A sweep writes one CSV + one JSON summary per (gamma, N) cell under
`cells/`, an `aggregate.csv` assembled from the summaries, and finally a
`manifest.json` echoing the run parameters together with a SHA-256 content
hash of every output file.  Each summary records the manifest fields its
numbers depend on; a completed cell whose record matches the manifest is
skipped on re-runs, so interrupted sweeps resume where they stopped and
finished sweeps are no-ops, while a cell from another manifest is recomputed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .ensembles import tag_from_gamma

CELL_DIR = "cells"
AGGREGATE_NAME = "aggregate.csv"
MANIFEST_NAME = "manifest.json"
# manifest fields that a cell's numbers depend on besides its (gamma, N)
PROVENANCE_KEYS = ("experiment", "realizations", "seed", "normalization", "beta")


def format_float(x) -> str:
    """Canonical 8-significant-digit decimal used in every CSV."""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, (int,)):
        return str(x)
    return f"{float(x):.8g}"


def format_row(row) -> str:
    return ",".join(format_float(v) if not isinstance(v, str) else v for v in row)


def write_csv(path: Path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(format_row(row) + "\n")
    tmp.replace(path)


def cell_stem(experiment: str, gamma: float, N: int) -> str:
    return f"{experiment}_g{tag_from_gamma(gamma):05d}_N{N}"


def cell_paths(out_dir: Path, stem: str):
    base = Path(out_dir) / CELL_DIR
    return base / f"{stem}.csv", base / f"{stem}.json"


def provenance_mismatch(summary: dict, manifest: dict) -> list:
    """PROVENANCE_KEYS on which a cell summary disagrees with the manifest or is silent."""
    return [key for key in PROVENANCE_KEYS
            if key not in summary or summary[key] != manifest.get(key)]


def cell_complete(out_dir: Path, stem: str, manifest: dict) -> bool:
    """Both cell files exist and the summary was written under this manifest."""
    csv_path, json_path = cell_paths(out_dir, stem)
    if not (csv_path.exists() and json_path.exists()):
        return False
    try:
        return not provenance_mismatch(load_summary(out_dir, stem), manifest)
    except (json.JSONDecodeError, OSError):
        return False


def write_cell(out_dir: Path, stem: str, header, rows, summary: dict) -> None:
    csv_path, json_path = cell_paths(out_dir, stem)
    write_csv(csv_path, header, rows)
    tmp = json_path.with_suffix(".json.tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    with open(tmp, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    tmp.replace(json_path)


def load_summary(out_dir: Path, stem: str) -> dict:
    _, json_path = cell_paths(out_dir, stem)
    with open(json_path) as fh:
        return json.load(fh)


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def output_files(out_dir: Path):
    out_dir = Path(out_dir)
    files = sorted((out_dir / CELL_DIR).glob("*.csv")) + sorted((out_dir / CELL_DIR).glob("*.json"))
    files += sorted(out_dir.glob("*.csv"))     # aggregate plus any post-processing tables
    return files


def finalize_manifest(out_dir: Path, manifest_dict: dict) -> Path:
    """Write manifest.json with a content hash for every output file."""
    out_dir = Path(out_dir)
    hashes = {str(p.relative_to(out_dir)): file_sha256(p) for p in output_files(out_dir)}
    payload = dict(manifest_dict)
    payload["hashes"] = hashes
    path = out_dir / MANIFEST_NAME
    tmp = path.with_suffix(".json.tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    tmp.replace(path)
    return path


def verify_outputs(out_dir: Path):
    """Re-hash outputs and re-check stored invariant records.

    Returns (ok, lines) where lines form a printable pass/fail table.  A run
    fails when its manifest records failures, when a cell of its (gamma, N)
    grid has no files, or when a cell summary disagrees with the manifest on
    a PROVENANCE_KEYS field.  Cell summaries may carry a "checks"
    mapping name -> {"value": v, "tol": t}; each is re-asserted as |v| <= t.
    """
    out_dir = Path(out_dir)
    lines = []
    ok = True
    manifest_path = out_dir / MANIFEST_NAME
    if not manifest_path.exists():
        return False, [f"FAIL manifest: {manifest_path} missing"]
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    for entry in manifest.get("failures", []):
        ok = False
        lines.append(f"FAIL run    {entry}")
    for gamma in manifest.get("gamma_grid", []):
        for N in manifest.get("N_grid", []):
            stem = cell_stem(manifest["experiment"], gamma, N)
            if not all(p.exists() for p in cell_paths(out_dir, stem)):
                ok = False
                lines.append(f"FAIL cell   {stem}: files missing")
    for rel, expect in sorted(manifest.get("hashes", {}).items()):
        path = out_dir / rel
        if not path.exists():
            ok = False
            lines.append(f"FAIL hash   {rel}: file missing")
            continue
        actual = file_sha256(path)
        if actual != expect:
            ok = False
            lines.append(f"FAIL hash   {rel}: content changed")
        else:
            lines.append(f"pass hash   {rel}")
    for json_path in sorted((out_dir / CELL_DIR).glob("*.json")):
        with open(json_path) as fh:
            summary = json.load(fh)
        if summary.get("status") != "ok":
            ok = False
            lines.append(f"FAIL status {json_path.name}: {summary.get('error', 'failed cell')}")
        stale = provenance_mismatch(summary, manifest)
        if stale:
            ok = False
            lines.append(f"FAIL cell   {json_path.name}: {', '.join(stale)} not the manifest's")
        for name, rec in sorted(summary.get("checks", {}).items()):
            if abs(rec["value"]) <= rec["tol"]:
                lines.append(f"pass check  {json_path.stem}.{name}")
            else:
                ok = False
                lines.append(f"FAIL check  {json_path.stem}.{name}: |{rec['value']:.3g}| > {rec['tol']:.3g}")
    return ok, lines
