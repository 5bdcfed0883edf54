"""Volume file I/O.

Two formats, chosen by extension:

* ``.nii`` — minimal NIfTI-1 subset: 348-byte header, sform geometry,
  float32 (intensity) or int16 (label) data, no extensions.
* ``.raw`` (+ sidecar ``.json``) — raw little-endian float32/uint8 buffer
  with a JSON header {shape, spacing, origin, direction, kind}.

Data is written x-fastest (Fortran order over (W, H, D)). Every JSON input
of the package is read by ``parse_json`` and its numbers by ``json_numbers``.
"""

from __future__ import annotations

import json
import math
import reprlib
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import ValidationError, VolumeIOError
from .volume import GridGeometry, LabelVolume, NUM_CLASSES, Volume

_HDR_SIZE = 348
_VOX_OFFSET = 352.0
_DT_FLOAT32 = 16
_DT_INT16 = 4
_MAGIC = b"n+1\x00"


def parse_json(data: str | bytes, what: str):
    """The JSON value of ``data``, text or UTF-8 bytes. Bad UTF-8, bad JSON and a number
    beyond the float range (NaN, +-Infinity, 1e400, 1 and 400 zeros), which would pass
    every range check after it, raise ValidationError naming ``what``."""

    def finite(text: str, parse=float):
        if not math.isfinite(float(text)):
            raise ValidationError(f"{what} number {reprlib.repr(text)} does not fit a finite float")
        return parse(text)

    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text, parse_constant=finite, parse_float=finite, parse_int=lambda text: finite(text, int))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} is not UTF-8: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None


def read_json(path: str | Path, what: str):
    """``parse_json`` of the file at ``path``; a file that cannot be read raises OSError."""
    return parse_json(Path(path).read_bytes(), what)


def known_names(entries, names, what: str):
    """Reject a name in ``entries`` that is not one of ``names``: a misspelt name
    would otherwise leave its setting at the default."""
    for name in entries:
        if name not in names:
            raise ValidationError(f"unknown {what} {name!r}; choose from {', '.join(names)}")


def _entries(value, shape: tuple) -> list | None:
    """The entries of ``value``, nested lists of exactly ``shape``, in row-major order; else None."""
    if not shape:
        return [value]
    if not isinstance(value, list) or len(value) != shape[0]:
        return None
    rows = [_entries(v, shape[1:]) for v in value]
    return None if None in rows else [e for row in rows for e in row]


def json_numbers(value, shapes, what: str) -> np.ndarray:
    """``value`` as a float array of the first of ``shapes`` (``()``: one number) that it
    fills with finite ints and floats; else, as for a bool or a string, ValidationError."""
    for shape in shapes:
        entries = _entries(value, shape)
        if entries is not None and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max for v in entries
        ):
            return np.array(entries, dtype=float).reshape(shape)
    sizes = " or ".join("x".join(map(str, s)) for s in shapes)
    wanted = f"{sizes} finite numbers" if sizes else "a finite number"
    raise ValidationError(f"{what} must be {wanted}, got {reprlib.repr(value)}")


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


def _intensity(geometry: GridGeometry, data: np.ndarray) -> Volume:
    """The Volume of a file's float32 voxels. They are checked before the cast to
    float64, which would warn on a signalling NaN; ``isfinite`` does not."""
    if not np.all(np.isfinite(data)):
        raise ValidationError("volume contains non-finite values")
    return Volume(geometry, data.astype(np.float64))


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
    return _intensity(geometry, data)


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
    try:
        header = read_json(path.with_suffix(".json"), "sidecar header")
        if not isinstance(header, dict):
            raise ValidationError("sidecar header must be a JSON object")
        for key in ("shape", "spacing", "origin", "direction", "kind"):
            if key not in header:
                raise ValidationError(f"sidecar missing {key!r}")
        shape = json_numbers(header["shape"], ((3,),), "sidecar shape")
        if np.any(shape < 1) or np.any(shape % 1):
            raise ValidationError(f"sidecar shape {header['shape']!r} is not 3 positive whole numbers")
        shape = tuple(int(n) for n in shape)
        kind = header["kind"]
        if kind not in ("intensity", "label"):
            raise ValidationError(f"unknown kind {kind!r}")
        spacing, origin = (json_numbers(header[k], ((3,),), f"sidecar {k}") for k in ("spacing", "origin"))
        direction = json_numbers(header["direction"], ((3, 3),), "sidecar direction")
        if not np.allclose(direction.T @ direction, np.eye(3), atol=1e-9):
            raise VolumeIOError("non-orthonormal-direction", "sidecar direction is not orthonormal")
        # GridGeometry rejects a spacing that is not positive
        geometry = GridGeometry(shape, spacing, origin, direction)
    except OSError as exc:
        raise VolumeIOError("unreadable-file", str(exc)) from exc
    except ValidationError as exc:
        raise VolumeIOError("malformed-header", str(exc)) from None
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
    return _intensity(geometry, data)


def read_volume(path: str | Path, kind: type | None = None) -> Volume | LabelVolume:
    """Dispatch on extension: .nii or .raw (+ .json sidecar). A file that does not
    hold a ``kind`` (``Volume`` or ``LabelVolume``) raises ValidationError naming it."""
    path = Path(path)
    readers = {".nii": read_nifti, ".raw": read_sidecar}
    if path.suffix not in readers:
        raise VolumeIOError("unsupported-format", f"unknown extension {path.suffix!r}")
    vol = readers[path.suffix](path)
    if kind is not None and not isinstance(vol, kind):
        raise ValidationError(f"{path} must be {'a label' if kind is LabelVolume else 'an intensity'} volume")
    return vol


def write_volume(vol: Volume | LabelVolume, path: str | Path):
    path = Path(path)
    if path.suffix == ".nii":
        return write_nifti(vol, path)
    if path.suffix == ".raw":
        return write_sidecar(vol, path)
    raise VolumeIOError("unsupported-format", f"unknown extension {path.suffix!r}")
