"""Run manifests: every CLI command records its config, seed, the digests of
its inputs (hashed before it writes) and of its outputs, the process's peak
RSS and the numpy version, atomically at run end."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ARTIFACT_VERSION = "0.1.0"


class ManifestError(ValueError):
    pass


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_open(path, mode: str = "w"):
    """The one way to create an output file: a temp file beside `path` (UTF-8
    in text mode), renamed over `path` when the block ends and removed if it
    raises. No fsync, so this covers a killed process, not power loss."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """Write `obj` as JSON with indent 2, sorted keys and a trailing newline."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def digests(paths) -> dict:
    """Path -> SHA-256 of each file, e.g. a command's inputs before it writes."""
    return {str(Path(p)): sha256_file(p) for p in paths}


def write_manifest(out_dir, command: str, config: dict, seed, input_digests: dict, outputs,
                   started: float, extra: dict | None = None) -> Path:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "artifact_version": ARTIFACT_VERSION,
        "input_digests": input_digests,
        "output_digests": digests(outputs),
        "started": started,
        "finished": time.time(),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),  # KiB on Linux
        "numpy": np.__version__,
    }
    if extra:
        manifest.update(extra)
    path = Path(out_dir) / "manifest.json"
    write_json(path, manifest)
    return path


def verify_manifest(manifest_path) -> list:
    """Re-hash the recorded inputs and outputs; return a list of drift
    descriptions. A manifest without output digests has its inputs checked;
    a path the run read and then overwrote is checked only as an output."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ManifestError(f"{manifest_path} is not JSON: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("input_digests"), dict):
        raise ManifestError(f"{manifest_path} is not a manifest: it has no input_digests object")
    if not isinstance(manifest.get("output_digests", {}), dict):
        raise ManifestError(f"{manifest_path} is not a manifest: its output_digests is not an object")
    problems = []
    outputs = manifest.get("output_digests", {})
    inputs = {p: d for p, d in manifest["input_digests"].items() if p not in outputs}
    for kind, recorded in (("input", inputs), ("output", outputs)):
        for path, digest in recorded.items():
            if not os.path.exists(path):
                problems.append(f"missing {kind}: {path}")
            elif sha256_file(path) != digest:
                problems.append(f"{kind} digest drift: {path}")
    return problems
