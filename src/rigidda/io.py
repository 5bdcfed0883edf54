"""Volume file I/O.

Two formats, chosen by extension:

* ``.nii`` — minimal NIfTI-1 subset: 348-byte header, sform geometry,
  float32 (intensity) or int16 (label) data, no extensions.
* ``.raw`` (+ sidecar ``.json``) — raw little-endian float32/uint8 buffer
  with a JSON header {shape, spacing, origin, direction, kind}.

Data is written x-fastest (Fortran order over (W, H, D)).
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import VolumeIOError
from .volume import GridGeometry, LabelVolume, NUM_CLASSES, Volume

_HDR_SIZE = 348
_VOX_OFFSET = 352.0
_DT_FLOAT32 = 16
_DT_INT16 = 4
_MAGIC = b"n+1\x00"


def _build_sform(g: GridGeometry) -> np.ndarray:
    m = np.zeros((3, 4))
    m[:, :3] = g.direction * g.spacing[None, :]
    m[:, 3] = g.origin
    return m


def _geometry_from_sform(shape, sform: np.ndarray) -> GridGeometry:
    if not np.all(np.isfinite(sform)):
        raise VolumeIOError("malformed-header", "non-finite sform entry")
    cols = sform[:, :3]
    spacing = np.linalg.norm(cols, axis=0)
    if np.any(spacing <= 0):
        raise VolumeIOError("malformed-header", "zero-length direction column")
    direction = cols / spacing[None, :]
    if not np.allclose(direction.T @ direction, np.eye(3), atol=1e-6):
        raise VolumeIOError("non-orthonormal-direction", "sform columns are not orthonormal")
    # re-orthonormalize so small float32 header error does not fail validation
    u, _, vt = np.linalg.svd(direction)
    direction = u @ vt
    return GridGeometry(shape, spacing, sform[:, 3], direction)


def write_nifti(vol: Volume | LabelVolume, path: str | Path):
    path = Path(path)
    is_label = isinstance(vol, LabelVolume)
    datatype = _DT_INT16 if is_label else _DT_FLOAT32
    bitpix = 16 if is_label else 32
    g = vol.geometry
    header = bytearray(_HDR_SIZE)
    struct.pack_into("<i", header, 0, _HDR_SIZE)
    struct.pack_into("<8h", header, 40, 3, *g.shape, 1, 1, 1, 1)
    struct.pack_into("<h", header, 70, datatype)
    struct.pack_into("<h", header, 72, bitpix)
    struct.pack_into("<8f", header, 76, 1.0, *g.spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, _VOX_OFFSET)
    struct.pack_into("<h", header, 254, 1)  # sform_code
    sform = _build_sform(g)
    struct.pack_into("<4f", header, 280, *sform[0])
    struct.pack_into("<4f", header, 296, *sform[1])
    struct.pack_into("<4f", header, 312, *sform[2])
    header[344:348] = _MAGIC
    data = vol.data.astype(np.int16 if is_label else np.float32)
    with open(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(b"\x00" * int(_VOX_OFFSET - _HDR_SIZE))
        fh.write(data.tobytes(order="F"))


def read_nifti(path: str | Path) -> Volume | LabelVolume:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise VolumeIOError("unreadable-file", str(exc)) from exc
    if len(blob) < _HDR_SIZE:
        raise VolumeIOError("truncated-buffer", f"file has only {len(blob)} bytes")
    if struct.unpack_from("<i", blob, 0)[0] != _HDR_SIZE:
        raise VolumeIOError("malformed-header", "sizeof_hdr != 348")
    if blob[344:348] != _MAGIC:
        raise VolumeIOError("malformed-header", "bad magic")
    dim = struct.unpack_from("<8h", blob, 40)
    if dim[0] != 3:
        raise VolumeIOError("malformed-header", f"expected 3D image, dim[0]={dim[0]}")
    shape = tuple(int(n) for n in dim[1:4])
    if min(shape) < 1:
        raise VolumeIOError("malformed-header", f"dimensions {shape} must all be positive")
    datatype = struct.unpack_from("<h", blob, 70)[0]
    if datatype not in (_DT_FLOAT32, _DT_INT16):
        raise VolumeIOError("malformed-header", f"unsupported datatype {datatype}")
    vox_offset = struct.unpack_from("<f", blob, 108)[0]
    # the voxel data of a single-file NIfTI starts after its 348-byte header
    if not math.isfinite(vox_offset) or vox_offset < _HDR_SIZE:
        raise VolumeIOError("malformed-header", f"vox_offset {vox_offset} is not a data offset")
    vox_offset = int(vox_offset)
    sform_code = struct.unpack_from("<h", blob, 254)[0]
    if sform_code < 1:
        raise VolumeIOError("malformed-header", "missing sform geometry")
    sform = np.array(
        [
            struct.unpack_from("<4f", blob, 280),
            struct.unpack_from("<4f", blob, 296),
            struct.unpack_from("<4f", blob, 312),
        ],
        dtype=float,
    )
    dtype = np.dtype("<i2") if datatype == _DT_INT16 else np.dtype("<f4")
    n = int(np.prod(shape))
    expected = vox_offset + n * dtype.itemsize
    if len(blob) < expected:
        raise VolumeIOError("truncated-buffer", f"need {expected} bytes, have {len(blob)}")
    data = np.frombuffer(blob, dtype=dtype, count=n, offset=vox_offset)
    data = data.reshape(shape, order="F")
    geometry = _geometry_from_sform(shape, sform)
    if datatype == _DT_INT16:
        if np.any((data < 0) | (data >= NUM_CLASSES)):
            raise VolumeIOError("unknown-class-id", "label file contains ids outside 0..3")
        return LabelVolume(geometry, data)
    return Volume(geometry, data.astype(np.float64))


def _is_whole(value) -> bool:
    """A JSON number with no fractional part (not a boolean)."""
    return value.is_integer() if isinstance(value, float) else type(value) is int


def write_sidecar(vol: Volume | LabelVolume, path: str | Path):
    path = Path(path)
    is_label = isinstance(vol, LabelVolume)
    g = vol.geometry
    header = {
        "shape": list(g.shape),
        "spacing": g.spacing.tolist(),
        "origin": g.origin.tolist(),
        "direction": g.direction.tolist(),
        "kind": "label" if is_label else "intensity",
    }
    data = vol.data.astype(np.uint8 if is_label else "<f4")
    path.write_bytes(data.tobytes(order="F"))
    path.with_suffix(".json").write_text(json.dumps(header, indent=2))


def read_sidecar(path: str | Path) -> Volume | LabelVolume:
    path = Path(path)
    json_path = path.with_suffix(".json")
    try:
        header = json.loads(json_path.read_text())
    except OSError as exc:
        raise VolumeIOError("unreadable-file", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise VolumeIOError("malformed-header", f"bad sidecar JSON: {exc}") from exc
    for key in ("shape", "spacing", "origin", "direction", "kind"):
        if key not in header:
            raise VolumeIOError("malformed-header", f"sidecar missing {key!r}")
    shape = header["shape"]
    if not isinstance(shape, list) or len(shape) != 3 or not all(_is_whole(n) and n >= 1 for n in shape):
        raise VolumeIOError("malformed-header", f"sidecar shape {shape!r} is not 3 positive whole numbers")
    shape = tuple(int(n) for n in shape)
    kind = header["kind"]
    if kind not in ("intensity", "label"):
        raise VolumeIOError("malformed-header", f"unknown kind {kind!r}")
    try:
        spacing, origin, direction = (np.asarray(header[k], dtype=float) for k in ("spacing", "origin", "direction"))
    except (TypeError, ValueError):
        raise VolumeIOError("malformed-header", "sidecar spacing, origin or direction is not numeric") from None
    vectors = spacing.shape == origin.shape == (3,) and np.all(np.isfinite([*spacing, *origin]))
    if not vectors or np.any(spacing <= 0):
        raise VolumeIOError("malformed-header", "sidecar spacing and origin must be finite 3-vectors, spacing > 0")
    if direction.shape != (3, 3) or not np.allclose(
        direction.T @ direction, np.eye(3), atol=1e-9
    ):
        raise VolumeIOError("non-orthonormal-direction", "sidecar direction is not orthonormal")
    geometry = GridGeometry(shape, spacing, origin, direction)
    dtype = np.dtype("u1") if kind == "label" else np.dtype("<f4")
    blob = path.read_bytes()
    n = math.prod(shape)
    if len(blob) < n * dtype.itemsize:
        raise VolumeIOError("truncated-buffer", f"raw buffer too short for shape {shape}")
    data = np.frombuffer(blob, dtype=dtype, count=n).reshape(shape, order="F")
    if kind == "label":
        if np.any(data >= NUM_CLASSES):
            raise VolumeIOError("unknown-class-id", "label file contains ids outside 0..3")
        return LabelVolume(geometry, data)
    return Volume(geometry, data.astype(np.float64))


def read_volume(path: str | Path) -> Volume | LabelVolume:
    """Dispatch on extension: .nii or .raw (+ .json sidecar)."""
    path = Path(path)
    if path.suffix == ".nii":
        return read_nifti(path)
    if path.suffix == ".raw":
        return read_sidecar(path)
    raise VolumeIOError("unsupported-format", f"unknown extension {path.suffix!r}")


def write_volume(vol: Volume | LabelVolume, path: str | Path):
    path = Path(path)
    if path.suffix == ".nii":
        return write_nifti(vol, path)
    if path.suffix == ".raw":
        return write_sidecar(vol, path)
    raise VolumeIOError("unsupported-format", f"unknown extension {path.suffix!r}")
