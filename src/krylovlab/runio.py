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
# manifest fields that a cell's numbers depend on besides its (gamma, N); the
# package version among them, so a cell an older release wrote is recomputed
PROVENANCE_KEYS = ("experiment", "realizations", "seed", "normalization", "beta", "version")


def format_float(x) -> str:
    """Canonical 8-significant-digit decimal used in every CSV."""
    if isinstance(x, int):             # bool included: True -> "1"
        return str(int(x))
    return f"{float(x):.8g}"


def format_row(row) -> str:
    return ",".join(format_float(v) if not isinstance(v, str) else v for v in row)


def _write_atomic(path: Path, text: str) -> None:
    """Write `text` to a temp file beside `path`, then move it into place in one step."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header), *(format_row(row) for row in rows)]
    _write_atomic(path, "".join(line + "\n" for line in lines))


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
    except ValueError:                  # unreadable, or not a JSON object
        return False


def write_cell(out_dir: Path, stem: str, header, rows, summary: dict) -> None:
    csv_path, json_path = cell_paths(out_dir, stem)
    write_csv(csv_path, header, rows)
    _write_atomic(json_path, json.dumps(summary, indent=1, sort_keys=True))


def _json_object(path: Path):
    """(the JSON object stored at `path`, None), or (None, why there is none)."""
    try:
        with open(path) as fh:
            value = json.load(fh)
    except (ValueError, OSError):       # JSON or text decoding failed
        return None, "unreadable"
    if not isinstance(value, dict):
        return None, "not a JSON object"
    return value, None


def check_results(summary: dict) -> list:
    """(name, value, tol, |value| <= tol) of each check of a cell summary, by name, so a
    NaN fails; ValueError unless "checks", if any, map names to {value, tol} records."""
    try:
        return [(name, rec["value"], rec["tol"], bool(abs(rec["value"]) <= rec["tol"]))
                for name, rec in sorted(summary.get("checks", {}).items())]
    except (AttributeError, KeyError, TypeError) as err:
        raise ValueError("checks not {value, tol} records") from err


def _summary_object(path: Path):
    """(the cell summary at `path`, None), or (None, why not): a JSON object, checks well formed."""
    summary, why = _json_object(path)
    try:
        check_results(summary or {})
    except ValueError as err:
        return None, str(err)
    return summary, why


def load_summary(out_dir: Path, stem: str) -> dict:
    summary, why = _summary_object(cell_paths(out_dir, stem)[1])
    if summary is None:
        raise ValueError(f"cell summary {stem}: {why}")
    return summary


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
    _write_atomic(path, json.dumps(payload, indent=1, sort_keys=True))
    return path


def verify_outputs(out_dir: Path):
    """Re-hash outputs and re-check stored invariant records.

    Returns (ok, lines) where lines form a printable pass/fail table and ok
    says that none of them is a FAIL line.  A run fails when its manifest
    records failures, when a cell of its (gamma, N) grid has no files, when
    the manifest or a cell summary is not a readable JSON object, or when a
    cell summary disagrees with the manifest on a PROVENANCE_KEYS field.  Cell
    summaries may carry a "checks" mapping name -> {"value": v, "tol": t},
    else they are malformed; each check is re-asserted by `check_results`.
    """
    out_dir = Path(out_dir)
    manifest_path = out_dir / MANIFEST_NAME
    if not manifest_path.exists():
        return False, [f"FAIL manifest: {manifest_path} missing"]
    manifest, why = _json_object(manifest_path)
    if manifest is None:
        return False, [f"FAIL manifest: {manifest_path} {why}"]
    lines = [f"FAIL run    {entry}" for entry in manifest.get("failures", [])]
    for gamma in manifest.get("gamma_grid", []):
        for N in manifest.get("N_grid", []):
            stem = cell_stem(manifest["experiment"], gamma, N)
            if not all(p.exists() for p in cell_paths(out_dir, stem)):
                lines.append(f"FAIL cell   {stem}: files missing")
    for rel, expect in sorted(manifest.get("hashes", {}).items()):
        path = out_dir / rel
        if not path.exists():
            lines.append(f"FAIL hash   {rel}: file missing")
        elif file_sha256(path) != expect:
            lines.append(f"FAIL hash   {rel}: content changed")
        else:
            lines.append(f"pass hash   {rel}")
    for json_path in sorted((out_dir / CELL_DIR).glob("*.json")):
        summary, why = _summary_object(json_path)
        if summary is None:
            lines.append(f"FAIL cell   {json_path.name}: {why}")
            continue
        if summary.get("status") != "ok":
            lines.append(f"FAIL status {json_path.name}: {summary.get('error', 'failed cell')}")
        stale = provenance_mismatch(summary, manifest)
        if stale:
            lines.append(f"FAIL cell   {json_path.name}: {', '.join(stale)} not the manifest's")
        lines += [f"pass check  {json_path.stem}.{name}" if passed else
                  f"FAIL check  {json_path.stem}.{name}: |{value:.3g}| > {tol:.3g}"
                  for name, value, tol, passed in check_results(summary)]
    return not any(line.startswith("FAIL") for line in lines), lines
