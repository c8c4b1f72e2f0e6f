"""Model checkpoints: a zip holding a JSON manifest plus one .npy per parameter.

Arrays are stored via numpy's own .npy writer (version 1.0 headers), so a
round trip is bit exact.  ``format_version`` guards against loading files
written by an incompatible release.
"""

from __future__ import annotations

import io
import json
import zipfile
import zlib
from typing import Any

import numpy as np

FORMAT_VERSION = 1


def save_checkpoint(path: str, manifest: dict[str, Any], params: dict[str, np.ndarray]) -> None:
    """Write ``manifest`` and named arrays to a zip at ``path``."""
    doc = dict(manifest)
    doc["format_version"] = FORMAT_VERSION
    doc["param_names"] = sorted(params)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("manifest.json", json.dumps(doc, indent=2, sort_keys=True))
        for name in sorted(params):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.ascontiguousarray(params[name], dtype=np.float64))
            zf.writestr(f"params/{name}.npy", buf.getvalue())


def load_checkpoint(path: str) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Read a checkpoint zip; returns (manifest, params).  A file that is not
    one raises one ValueError that names ``path``."""
    # A missing file keeps its FileNotFoundError, which names the path.
    with open(path, "rb") as file:
        try:
            with zipfile.ZipFile(file) as zf:
                manifest = json.loads(zf.read("manifest.json"))
                names = manifest.get("param_names", []) if isinstance(manifest, dict) else None
                if not isinstance(names, list):
                    raise ValueError("manifest.json must be a JSON object whose param_names is a list")
                version = manifest.get("format_version")
                if version != FORMAT_VERSION:
                    raise ValueError(f"unsupported checkpoint format_version {version!r}, expected {FORMAT_VERSION}")
                params = {}
                for name in names:
                    with zf.open(f"params/{name}.npy") as fh:
                        params[name] = np.lib.format.read_array(fh)
        except (zipfile.BadZipFile, zlib.error, EOFError, KeyError, NotImplementedError, OSError,
                RuntimeError, ValueError) as exc:
            # zipfile raises RuntimeError for an encrypted member, NotImplementedError
            # for an unknown method or version, and OSError when bz2 cannot
            # decompress.  A missing member raises KeyError, whose str() would
            # quote its message.
            raise ValueError(f"{path}: {exc.args[0] if isinstance(exc, KeyError) else exc}") from exc
    return manifest, params
