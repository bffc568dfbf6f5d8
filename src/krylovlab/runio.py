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


def cell_complete(out_dir: Path, stem: str, manifest: dict):
    """The cell's summary, for reuse, when its CSV exists and `load_summary` reads a
    summary written under this manifest; else None."""
    try:
        summary = load_summary(out_dir, stem)
    except ValueError:                  # missing, unreadable, or not a summary
        return None
    complete = cell_paths(out_dir, stem)[0].exists() and not provenance_mismatch(summary, manifest)
    return summary if complete else None


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


def load_summary(out_dir: Path, stem: str) -> dict:
    """The cell's summary, a JSON object with well-formed checks; else ValueError(why not)."""
    summary, why = _json_object(cell_paths(out_dir, stem)[1])
    if summary is None:
        raise ValueError(why)
    check_results(summary)
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


def load_manifest(out_dir: Path):
    """(the run's manifest, None), or (None, why there is none): a JSON object whose
    "hashes" and "failures", if there, are a mapping and a list."""
    path = Path(out_dir) / MANIFEST_NAME
    manifest, why = _json_object(path) if path.exists() else (None, "missing")
    if manifest is not None and not (isinstance(manifest.get("hashes", {}), dict)
                                     and isinstance(manifest.get("failures", []), list)):
        return None, "hashes not a mapping or failures not a list"
    return manifest, why


def verify_outputs(out_dir: Path, grid_stems):
    """Re-hash a run's outputs and re-check its grid's cells: (ok, printable pass/fail
    lines), ok when no line is a FAIL.  `grid_stems(manifest)` gives the stems of the
    manifest's (gamma, N) cells, or raises ValueError or TypeError on a manifest that is
    not a run's.  A run fails when its manifest is missing or refused or records
    failures, when a hashed file is gone or changed, or when a grid cell has no files or
    a summary that `load_summary` refuses, that is not "ok", that disagrees with the
    manifest on PROVENANCE_KEYS or that fails a check.  Files off the grid are only hashed.
    """
    out_dir = Path(out_dir)
    manifest, why = load_manifest(out_dir)
    try:
        stems = grid_stems(manifest) if manifest is not None else []
    except (TypeError, ValueError) as err:
        manifest, why = None, f"refused: {err}"
    if manifest is None:
        return False, [f"FAIL manifest: {out_dir / MANIFEST_NAME} {why}"]
    lines = [f"FAIL run    {entry}" for entry in manifest.get("failures", [])]
    for rel, expect in sorted(manifest.get("hashes", {}).items()):
        path = out_dir / rel
        if not path.exists():
            lines.append(f"FAIL hash   {rel}: file missing")
        elif file_sha256(path) != expect:
            lines.append(f"FAIL hash   {rel}: content changed")
        else:
            lines.append(f"pass hash   {rel}")
    for stem in stems:
        if not all(p.exists() for p in cell_paths(out_dir, stem)):
            lines.append(f"FAIL cell   {stem}: files missing")
            continue
        try:
            summary = load_summary(out_dir, stem)
        except ValueError as err:
            lines.append(f"FAIL cell   {stem}.json: {err}")
            continue
        if summary.get("status") != "ok":
            lines.append(f"FAIL status {stem}.json: {summary.get('error', 'failed cell')}")
        stale = provenance_mismatch(summary, manifest)
        if stale:
            lines.append(f"FAIL cell   {stem}.json: {', '.join(stale)} not the manifest's")
        for name, value, tol, passed in check_results(summary):   # how near its bound it is
            share = f"|value|/tol {abs(value) / tol if tol else float('inf') if value else 0.0:.3g}"
            lines.append(f"pass check  {stem}.{name}: {share}" if passed else
                         f"FAIL check  {stem}.{name}: |{value:.3g}| > {tol:.3g}, {share}")
    return not any(line.startswith("FAIL") for line in lines), lines
