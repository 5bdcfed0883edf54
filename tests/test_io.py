"""Volume file I/O round trips and failure modes."""

import json
import struct

import numpy as np
import pytest

from rigidda.errors import VolumeIOError
from rigidda.io import read_nifti, read_volume, write_nifti, write_volume
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
        ],
        ids=[
            "shape-string", "shape-fraction", "shape-two", "shape-four", "shape-scalar", "shape-null",
            "shape-bool", "shape-zero", "shape-negative", "spacing-string", "spacing-two", "spacing-nan",
            "spacing-inf", "spacing-zero", "origin-string", "origin-object", "origin-inf",
            "direction-string", "direction-ragged",
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
    def test_unknown_extension(self, tmp_path, intensity):
        with pytest.raises(VolumeIOError) as err:
            write_volume(intensity, tmp_path / "vol.mha")
        assert err.value.code == "unsupported-format"
        with pytest.raises(VolumeIOError) as err:
            read_volume(tmp_path / "vol.mha")
        assert err.value.code == "unsupported-format"
