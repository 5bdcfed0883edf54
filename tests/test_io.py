"""Volume file I/O round trips and failure modes, and the shared JSON reader."""

import json
import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidda.errors import ValidationError, VolumeIOError
from rigidda.io import read_nifti, read_sidecar, read_volume, write_nifti, write_sidecar, write_volume
from rigidda.phantom import PhantomSpec, world_rigid
from rigidda.rigid import RigidParams, euler_to_affine, read_transform, write_transform
from rigidda.volume import GridGeometry, LabelVolume, Volume


def _geometry():
    c, s = np.cos(0.4), np.sin(0.4)
    direction = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return GridGeometry((6, 5, 4), [1.5, 1.5, 3.0], [-4.0, 2.5, 1.0], direction)


@pytest.fixture
def intensity(rng):
    g = _geometry()
    return Volume(g, rng.uniform(-1, 1, size=g.shape))


@pytest.fixture
def labels(rng):
    g = _geometry()
    return LabelVolume(g, rng.integers(0, 4, size=g.shape).astype(np.int16))


class TestNifti:
    def test_intensity_round_trip(self, tmp_path, intensity):
        path = tmp_path / "vol.nii"
        write_nifti(intensity, path)
        back = read_nifti(path)
        assert isinstance(back, Volume)
        # data is stored as float32
        np.testing.assert_allclose(back.data, intensity.data, atol=1e-6)
        assert back.geometry.shape == intensity.geometry.shape
        np.testing.assert_allclose(back.geometry.spacing, intensity.geometry.spacing, atol=1e-5)
        np.testing.assert_allclose(back.geometry.origin, intensity.geometry.origin, atol=1e-5)
        np.testing.assert_allclose(
            back.geometry.direction, intensity.geometry.direction, atol=1e-5
        )

    def test_label_round_trip_exact(self, tmp_path, labels):
        path = tmp_path / "lab.nii"
        write_nifti(labels, path)
        back = read_nifti(path)
        assert isinstance(back, LabelVolume)
        np.testing.assert_array_equal(back.data, labels.data)

    def test_x_fastest_layout(self, tmp_path):
        g = GridGeometry.isotropic((3, 2, 2), 1.0)
        data = np.arange(12, dtype=float).reshape(3, 2, 2)
        path = tmp_path / "layout.nii"
        write_nifti(Volume(g, data), path)
        raw = np.frombuffer(path.read_bytes()[352:], dtype="<f4")
        # x varies fastest on disk
        np.testing.assert_array_equal(raw[:3], data[:, 0, 0].astype(np.float32))

    def test_truncated_file(self, tmp_path, intensity):
        path = tmp_path / "trunc.nii"
        write_nifti(intensity, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(VolumeIOError) as err:
            read_nifti(path)
        assert err.value.code == "truncated-buffer"

    def test_header_shorter_than_minimum(self, tmp_path):
        path = tmp_path / "tiny.nii"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(VolumeIOError) as err:
            read_nifti(path)
        assert err.value.code == "truncated-buffer"

    def test_bad_magic(self, tmp_path, intensity):
        path = tmp_path / "magic.nii"
        write_nifti(intensity, path)
        blob = bytearray(path.read_bytes())
        blob[344:348] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(VolumeIOError) as err:
            read_nifti(path)
        assert err.value.code == "malformed-header"

    def test_non_orthonormal_direction(self, tmp_path, intensity):
        import struct

        path = tmp_path / "shear.nii"
        write_nifti(intensity, path)
        blob = bytearray(path.read_bytes())
        # shear the first sform row toward the second axis
        row = list(struct.unpack_from("<4f", blob, 280))
        row[1] += 1.0
        struct.pack_into("<4f", blob, 280, *row)
        path.write_bytes(bytes(blob))
        with pytest.raises(VolumeIOError) as err:
            read_nifti(path)
        assert err.value.code == "non-orthonormal-direction"

    def test_label_ids_out_of_range(self, tmp_path, labels):
        path = tmp_path / "badlab.nii"
        write_nifti(labels, path)
        blob = bytearray(path.read_bytes())
        blob[352:354] = np.int16(9).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(VolumeIOError) as err:
            read_nifti(path)
        assert err.value.code == "unknown-class-id"


class TestNiftiHeaderDefects:
    """Byte-crafted headers: each defect is a VolumeIOError (exit 4), never a bare error."""

    def _crafted(self, tmp_path, intensity, fmt, offset, *values):
        path = tmp_path / "crafted.nii"
        write_nifti(intensity, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, offset, *values)
        path.write_bytes(bytes(blob))
        return path

    @pytest.mark.parametrize("vox_offset", [-352.0, -1.0, float("nan"), float("inf"), float("-inf"), 0.0, 100.0])
    def test_bad_vox_offset(self, tmp_path, intensity, vox_offset):
        path = self._crafted(tmp_path, intensity, "<f", 108, vox_offset)
        with pytest.raises(VolumeIOError) as err:
            read_nifti(path)
        assert err.value.code == "malformed-header"

    @pytest.mark.parametrize("dims", [(0, 5, 4), (6, 0, 4), (6, 5, 0), (-6, 5, 4)])
    def test_non_positive_dimension(self, tmp_path, intensity, dims):
        path = self._crafted(tmp_path, intensity, "<3h", 42, *dims)
        with pytest.raises(VolumeIOError) as err:
            read_nifti(path)
        assert err.value.code == "malformed-header"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("offset", [292, 296, 324], ids=["origin-x", "direction", "origin-z"])
    def test_non_finite_sform(self, tmp_path, intensity, offset, value):
        path = self._crafted(tmp_path, intensity, "<f", offset, value)
        with pytest.raises(VolumeIOError) as err:
            read_nifti(path)
        assert err.value.code == "malformed-header"

    @pytest.mark.parametrize("command", ["resample", "apply"])
    def test_non_finite_sform_cli_exit_4(self, tmp_path, intensity, command):
        from rigidda.cli import main

        path = self._crafted(tmp_path, intensity, "<f", 292, float("nan"))
        out = tmp_path / "o.nii"
        if command == "resample":
            args = ["resample", "--input", str(path), "--transform", "0,0,0,0,0,0,0,0,0"]
        else:
            args = ["apply", "--ax", str(path), "--params", "0,0,0,0,0,0,0,0,0"]
        assert main(args + ["--output", str(out)]) == 4
        assert not out.exists()

    def test_cli_exit_code_4(self, tmp_path, intensity):
        from rigidda.cli import main

        path = self._crafted(tmp_path, intensity, "<f", 108, float("nan"))
        assert main(["resample", "--input", str(path), "--transform", "0,0,0,0,0,0,0,0,0",
                     "--output", str(tmp_path / "o.nii")]) == 4
        path = self._crafted(tmp_path, intensity, "<3h", 42, 6, 0, 4)
        assert main(["resample", "--input", str(path), "--transform", "0,0,0,0,0,0,0,0,0",
                     "--output", str(tmp_path / "o.nii")]) == 4


class TestSidecar:
    def test_intensity_round_trip(self, tmp_path, intensity):
        path = tmp_path / "vol.raw"
        write_volume(intensity, path)
        assert (tmp_path / "vol.json").exists()
        back = read_volume(path)
        assert isinstance(back, Volume)
        np.testing.assert_allclose(back.data, intensity.data, atol=1e-6)
        np.testing.assert_allclose(
            back.geometry.direction, intensity.geometry.direction, atol=1e-12
        )

    def test_label_round_trip(self, tmp_path, labels):
        path = tmp_path / "lab.raw"
        write_volume(labels, path)
        back = read_volume(path)
        assert isinstance(back, LabelVolume)
        np.testing.assert_array_equal(back.data, labels.data)

    def test_truncated_raw(self, tmp_path, intensity):
        path = tmp_path / "vol.raw"
        write_volume(intensity, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(VolumeIOError) as err:
            read_volume(path)
        assert err.value.code == "truncated-buffer"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("shape", ["a", 5, 4]),
            ("shape", [6.5, 5, 4]),
            ("shape", [6, 5]),
            ("shape", [6, 5, 4, 1]),
            ("shape", 6),
            ("shape", [6, None, 4]),
            ("shape", [True, 5, 4]),
            ("shape", [0, 5, 4]),
            ("shape", [6, 5, -4]),
            ("spacing", ["a", 1.0, 1.0]),
            ("spacing", [1.0, 1.0]),
            ("spacing", [float("nan"), 1.0, 1.0]),
            ("spacing", [float("inf"), 1.0, 1.0]),
            ("spacing", [0.0, 1.0, 1.0]),
            ("origin", [0.0, "x", 0.0]),
            ("origin", {"x": 0}),
            ("origin", [0.0, float("-inf"), 0.0]),
            ("direction", "abc"),
            ("direction", [[1.0, 0.0], [0.0]]),
            ("shape", [10**400, 5, 4]),
            ("spacing", [10**400, 1.5, 3.0]),
            ("spacing", [True, 1.5, 3.0]),
            ("spacing", ["1.5", 1.5, 3.0]),
            ("origin", [-4.0, 2.5, True]),
            ("origin", ["-4", 2.5, 1.0]),
            ("direction", [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]]),
            ("direction", [[True, 0, 0], [0, 1, 0], [0, 0, 1]]),
            ("direction", [[1, 0, 0], [0, "1", 0], [0, 0, 1]]),
        ],
        ids=[
            "shape-string", "shape-fraction", "shape-two", "shape-four", "shape-scalar", "shape-null",
            "shape-bool", "shape-zero", "shape-negative", "spacing-string", "spacing-two", "spacing-nan",
            "spacing-inf", "spacing-zero", "origin-string", "origin-object", "origin-inf",
            "direction-string", "direction-ragged", "shape-huge-int", "spacing-huge-int", "spacing-true",
            "spacing-string-number", "origin-true", "origin-string-number", "direction-huge-int",
            "direction-true", "direction-string-one",
        ],
    )
    def test_bad_header_exits_4(self, tmp_path, intensity, key, value):
        from rigidda.cli import main

        path = tmp_path / "vol.raw"
        write_volume(intensity, path)
        json_path = tmp_path / "vol.json"
        header = json.loads(json_path.read_text())
        header[key] = value
        json_path.write_text(json.dumps(header))
        with pytest.raises(VolumeIOError) as err:
            read_volume(path)
        assert err.value.code == "malformed-header"
        args = ["resample", "--input", str(path), "--transform", "0,0,0,0,0,0,0,0,0"]
        assert main(args + ["--output", str(tmp_path / "o.nii")]) == 4

    @pytest.mark.parametrize(
        "blob",
        [
            b'{"shape": [6, 5, 4], "kind": "intensity\xff"}',
            b"\xff\xfe{}",
            b'"shape spacing origin direction kind"',
            b'["shape", "spacing", "origin", "direction", "kind"]',
            b"3",
            b"[" * 100000,
        ],
        ids=["non-utf8-string", "non-utf8-start", "string-naming-keys", "list-naming-keys", "number", "deep-nesting"],
    )
    def test_bad_header_bytes_exits_4(self, tmp_path, intensity, blob):
        from rigidda.cli import main

        path = tmp_path / "vol.raw"
        write_volume(intensity, path)
        (tmp_path / "vol.json").write_bytes(blob)
        with pytest.raises(VolumeIOError) as err:
            read_volume(path)
        assert err.value.code == "malformed-header"
        args = ["resample", "--input", str(path), "--transform", "0,0,0,0,0,0,0,0,0"]
        assert main(args + ["--output", str(tmp_path / "o.nii")]) == 4

    def test_whole_float_shape_accepted(self, tmp_path, intensity):
        path = tmp_path / "vol.raw"
        write_volume(intensity, path)
        json_path = tmp_path / "vol.json"
        header = json.loads(json_path.read_text())
        header["shape"] = [float(n) for n in header["shape"]]
        json_path.write_text(json.dumps(header))
        assert read_volume(path).geometry.shape == intensity.geometry.shape

    def test_missing_sidecar_key(self, tmp_path, intensity):
        path = tmp_path / "vol.raw"
        write_volume(intensity, path)
        json_path = tmp_path / "vol.json"
        text = json_path.read_text().replace('"spacing"', '"spacings"')
        json_path.write_text(text)
        with pytest.raises(VolumeIOError) as err:
            read_volume(path)
        assert err.value.code == "malformed-header"


class TestDispatch:
    @pytest.mark.parametrize("suffix", [".nii", ".raw"])
    @pytest.mark.parametrize("stored_labels", [False, True], ids=["intensity-file", "label-file"])
    def test_kind_mismatch_names_the_file(self, tmp_path, intensity, labels, stored_labels, suffix):
        path = tmp_path / f"vol{suffix}"
        write_volume(labels if stored_labels else intensity, path)
        stored, other = (LabelVolume, Volume) if stored_labels else (Volume, LabelVolume)
        with pytest.raises(ValidationError, match=re.escape(f"{path} must be")):
            read_volume(path, other)
        assert type(read_volume(path, stored)) is stored is type(read_volume(path))

    def test_unknown_extension(self, tmp_path, intensity):
        with pytest.raises(VolumeIOError) as err:
            write_volume(intensity, tmp_path / "vol.mha")
        assert err.value.code == "unsupported-format"
        with pytest.raises(VolumeIOError) as err:
            read_volume(tmp_path / "vol.mha")
        assert err.value.code == "unsupported-format"


# what a mutation puts in place of one number of a valid file
class TestSignallingNan:
    """A signalling-NaN voxel (float32 bits 0x7fa00000) is rejected before the float64
    cast, which would warn "invalid value encountered in cast" on it."""

    @pytest.mark.parametrize("suffix", [".nii", ".raw"])
    def test_read_raises_validation_error_without_a_warning(self, tmp_path, intensity, suffix):
        path = tmp_path / f"snan{suffix}"
        write_volume(intensity, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 352 if suffix == ".nii" else 0, 0x7FA00000)
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite"):
                read_volume(path)


# the first byte of each header field the NIfTI reader reads: sizeof_hdr, dim[0..3],
# datatype, bitpix, vox_offset, sform_code, the three sform rows and the magic
_READ_FIELDS = [0, 40, 42, 44, 46, 70, 72, 108, 254, 280, 284, 292, 296, 308, 312, 324, 344]


class TestNiftiHeaderFuzz:
    """A .nii whose header bytes 0-351 are mutated is read as a volume or rejected
    with VolumeIOError or ValidationError, never anything else."""

    @settings(max_examples=200)
    @given(data=st.data(), labels=st.booleans())
    def test_mutated_header(self, fuzz_dir, intensity_and_labels, data, labels):
        path = fuzz_dir / "mutated.nii"
        write_nifti(intensity_and_labels[labels], path)
        blob = bytearray(path.read_bytes())
        near_field = st.sampled_from(_READ_FIELDS).flatmap(lambda start: st.integers(start, start + 3))
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.one_of(st.integers(0, 351), near_field))] = data.draw(st.integers(0, 255))
        path.write_bytes(bytes(blob))
        try:
            vol = read_volume(path)
        except (VolumeIOError, ValidationError):
            return
        assert isinstance(vol, (Volume, LabelVolume)) and vol.data.shape == vol.geometry.shape


_SWAPS = ["1" + "0" * 400, "-1" + "0" * 400, "true", "false", '"1"', "NaN", "-Infinity", "1e400", "null"]
_NUMBER = re.compile(r"-?\d+(\.\d+)?([eE][-+]?\d+)?")


@st.composite
def _mutated(draw, text: str) -> bytes:
    """``text`` as UTF-8 with one to three mutations: a flipped byte, a truncation,
    or one number swapped for a huge integer, a boolean, a string or a non-finite value."""
    data = text.encode()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "swap"]))
        if kind == "flip" and data:
            i = draw(st.integers(0, len(data) - 1))
            data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
        elif kind == "truncate":
            data = data[: draw(st.integers(0, max(len(data) - 1, 0)))]
        else:
            numbers = list(_NUMBER.finditer(data.decode("utf-8", "replace")))
            if numbers and data.isascii():
                m = draw(st.sampled_from(numbers))
                data = data[: m.start()] + draw(st.sampled_from(_SWAPS)).encode() + data[m.end():]
    return data


def _only_numbers(value) -> bool:
    """Nested lists of JSON ints and floats only: no bool, string or null."""
    return all(map(_only_numbers, value)) if isinstance(value, list) else type(value) in (int, float)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def transform_texts(fuzz_dir):
    """Valid transform files: written by write_transform, a nested m, a bare list of 16."""
    texts = []
    for record in (RigidParams.from_vector([0.1, -0.2, 0.3, 0.05, -0.1, 0.02, 0.0, 0.01, -0.03]), (np.eye(4),) * 2):
        write_transform(fuzz_dir / "t.json", record)
        texts.append((fuzz_dir / "t.json").read_text())
    return texts + [json.dumps({"m": np.eye(4).tolist()}), json.dumps(np.eye(4).reshape(16).tolist())]


@pytest.fixture(scope="module")
def intensity_and_labels():
    g = GridGeometry((6, 5, 4), [1.5, 1.5, 3.0], [-4.0, 2.5, 1.0], np.eye(3))
    rng = np.random.default_rng(0)
    return Volume(g, rng.uniform(-1, 1, g.shape)), LabelVolume(g, rng.integers(0, 4, g.shape))


def _spec_texts():
    posed = replace(PhantomSpec().scaled(0.7), pose=world_rigid((0.1, -0.2, 0.3), (1.0, 2.0, -3.0)))
    return [PhantomSpec().to_json(), posed.to_json()]


class TestJsonReaderFuzz:
    """A mutated transform file, phantom spec or sidecar header is read or rejected
    with the package's own error, never anything else (the config has its own fuzz)."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_transform_file(self, fuzz_dir, transform_texts, data):
        text = data.draw(st.sampled_from(transform_texts))
        path = fuzz_dir / "mutated_transform.json"
        path.write_bytes(data.draw(_mutated(text)))
        try:
            m, m_inv = read_transform(path)
        except ValidationError:
            return
        raw = json.loads(path.read_bytes())
        entries = raw["m"] if isinstance(raw, dict) else raw
        assert _only_numbers(entries)
        np.testing.assert_array_equal(m, np.array(entries, dtype=float).reshape(4, 4))
        assert m_inv.shape == (4, 4) and m_inv.dtype == np.float64

    @settings(max_examples=300)
    @given(data=st.data())
    def test_spec_file(self, fuzz_dir, data):
        path = fuzz_dir / "mutated_spec.json"
        path.write_bytes(data.draw(_mutated(data.draw(st.sampled_from(_spec_texts())))))
        try:
            spec = PhantomSpec.from_file(path)
        except ValidationError:
            return
        raw = json.loads(path.read_bytes())
        for name in ("sigma_mm", "noise_sigma", "logit_scale", "prior_sigma_mm", "prior_bias_mm", "pose"):
            if name in raw:
                assert _only_numbers(raw[name])
                np.testing.assert_array_equal(getattr(spec, name), np.reshape(raw[name], np.shape(getattr(spec, name))))
        assert all(type(v) is float for v in [*spec.levels.values(), *spec.lv.center, *spec.rv.semi_axes])

    @settings(max_examples=300)
    @given(data=st.data(), labels=st.booleans())
    def test_sidecar_header(self, fuzz_dir, intensity_and_labels, data, labels):
        path = fuzz_dir / "mutated.raw"
        write_sidecar(intensity_and_labels[labels], path)
        header = path.with_suffix(".json")
        header.write_bytes(data.draw(_mutated(header.read_text())))
        try:
            back = read_volume(path)
        except VolumeIOError:
            return
        raw = json.loads(header.read_bytes())
        for name in ("shape", "spacing", "origin", "direction"):
            assert _only_numbers(raw[name])
            np.testing.assert_array_equal(getattr(back.geometry, name), raw[name])


_ANGLES = st.floats(-3.0, 3.0)
_OFFSETS = st.floats(-0.5, 0.5)


class TestJsonRoundTrip:
    """What the writers write, the shared reader reads back to the same bits."""

    @settings(max_examples=50)
    @given(st.lists(_ANGLES, min_size=3, max_size=3), st.lists(_OFFSETS, min_size=6, max_size=6))
    def test_transform(self, fuzz_dir, angles, offsets):
        params = RigidParams.from_vector(angles + offsets)
        mats = euler_to_affine(params)
        path = fuzz_dir / "round_trip_transform.json"
        write_transform(path, params)
        m, m_inv = read_transform(path)
        np.testing.assert_array_equal(m, mats.m)
        np.testing.assert_array_equal(m_inv, mats.m_inv)
        write_transform(path, (mats.m_t, mats.m_t_inv))
        m, m_inv = read_transform(path)
        np.testing.assert_array_equal(m, mats.m_t)
        np.testing.assert_array_equal(m_inv, mats.m_t_inv)

    @settings(max_examples=50)
    @given(st.one_of(st.none(), st.floats(0.1, 3.0)), st.lists(_ANGLES, min_size=3, max_size=3))
    def test_spec(self, fuzz_dir, factor, angles):
        spec = PhantomSpec() if factor is None else PhantomSpec().scaled(factor)
        spec = replace(spec, pose=world_rigid(tuple(angles), (1.0, -2.0, 0.5)))
        path = fuzz_dir / "round_trip_spec.json"
        path.write_text(spec.to_json())
        back = PhantomSpec.from_file(path)
        assert back.to_json() == spec.to_json()
        np.testing.assert_array_equal(back.pose, spec.pose)

    @settings(max_examples=50)
    @given(
        st.lists(st.integers(1, 5), min_size=3, max_size=3),
        st.lists(st.floats(0.1, 5.0), min_size=3, max_size=3),
        st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
        st.lists(_ANGLES, min_size=3, max_size=3),
        st.booleans(),
    )
    def test_sidecar(self, fuzz_dir, shape, spacing, origin, angles, labels):
        direction = world_rigid(tuple(angles), (0.0, 0.0, 0.0))[:3, :3]
        g = GridGeometry(tuple(shape), spacing, origin, direction)
        rng = np.random.default_rng(1)
        vol = LabelVolume(g, rng.integers(0, 4, g.shape)) if labels else Volume(g, rng.uniform(-1, 1, g.shape))
        path = fuzz_dir / "round_trip.raw"
        write_sidecar(vol, path)
        back = read_sidecar(path)
        assert type(back) is type(vol) and back.geometry.shape == g.shape
        for name in ("spacing", "origin", "direction"):
            np.testing.assert_array_equal(getattr(back.geometry, name), getattr(g, name))
        expected = vol.data if labels else vol.data.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(back.data, expected)
