"""Run manifests: every CLI command records its config, seed, input file
digests, and outputs, written atomically at run end."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path

ARTIFACT_VERSION = "0.1.0"


class ManifestError(ValueError):
    pass


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write(path, data: bytes) -> None:
    """Write `data` to a temp file beside `path`, then rename it over `path`,
    so `path` always holds either the old file or the whole new one. A write
    that raises removes the temp file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_manifest(out_dir, command: str, config: dict, seed, inputs, outputs,
                   started: float, extra: dict | None = None) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "artifact_version": ARTIFACT_VERSION,
        "input_digests": {str(p): sha256_file(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "started": started,
        "finished": time.time(),
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    atomic_write(path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return path


def verify_manifest(manifest_path) -> list:
    """Re-hash the recorded inputs; return a list of drift descriptions."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ManifestError(f"{manifest_path} is not JSON: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("input_digests"), dict):
        raise ManifestError(f"{manifest_path} is not a manifest: it has no input_digests object")
    problems = []
    for path, digest in manifest["input_digests"].items():
        if not os.path.exists(path):
            problems.append(f"missing input: {path}")
        elif sha256_file(path) != digest:
            problems.append(f"digest drift: {path}")
    return problems
