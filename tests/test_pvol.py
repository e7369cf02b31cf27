"""Volume containers and the binary volume format."""

import struct

import numpy as np
import pytest

from pbrseg.errors import MagicError, SchemaError, TruncationError
from pbrseg.pvol import (MaskVolume, ProbVolume, Volume, read_pvol, read_pvol_file,
                         write_pvol, write_pvol_file)


def test_volume_roundtrip_bit_identical(rng):
    data = rng.standard_normal((3, 4, 5)).astype(np.float32)
    v = Volume(data, (2.0, 0.7, 0.7))
    out = read_pvol(write_pvol(v))
    assert isinstance(out, Volume)
    assert out.data.tobytes() == data.tobytes()
    # spacing is stored as f32, so compare at f32 precision
    assert out.spacing == tuple(np.float32([2.0, 0.7, 0.7]))


def test_mask_roundtrip(rng):
    data = (rng.uniform(size=(2, 6, 6)) > 0.5).astype(np.uint8)
    out = read_pvol(write_pvol(MaskVolume(data)))
    assert isinstance(out, MaskVolume)
    np.testing.assert_array_equal(out.data, data)


def test_header_layout_hand_parse(rng):
    """Parse the emitted bytes with raw struct calls as an independent check."""
    data = rng.standard_normal((2, 3, 4)).astype(np.float32)
    blob = write_pvol(Volume(data, (1.5, 0.5, 0.25)))
    assert blob[:4] == b"PVOL"
    version, dtype_code = struct.unpack_from("<IB", blob, 4)
    m, h, w = struct.unpack_from("<3I", blob, 9)
    sz, sy, sx = struct.unpack_from("<3f", blob, 21)
    assert (version, dtype_code) == (1, 1)
    assert (m, h, w) == (2, 3, 4)
    assert (sz, sy, sx) == (1.5, 0.5, 0.25)
    payload = np.frombuffer(blob[33:], dtype="<f4").reshape(2, 3, 4)
    np.testing.assert_array_equal(payload, data)
    # slice-major: the second slice starts h*w floats in
    assert struct.unpack_from("<f", blob, 33 + 4 * 12)[0] == data[1, 0, 0]


def test_mask_payload_is_one_byte_per_voxel():
    mask = MaskVolume(np.ones((2, 2, 2), dtype=np.uint8))
    blob = write_pvol(mask)
    assert len(blob) == 33 + 8
    assert blob[33:] == b"\x01" * 8


def test_bad_magic_distinct_error():
    blob = bytearray(write_pvol(Volume(np.zeros((1, 1, 1), dtype=np.float32))))
    blob[:4] = b"XXXX"
    with pytest.raises(MagicError):
        read_pvol(bytes(blob))


def test_truncated_payload_distinct_error():
    blob = write_pvol(Volume(np.zeros((2, 3, 3), dtype=np.float32)))
    with pytest.raises(TruncationError):
        read_pvol(blob[:-5])


def test_dims_payload_mismatch_is_truncation():
    blob = bytearray(write_pvol(Volume(np.zeros((2, 3, 3), dtype=np.float32))))
    struct.pack_into("<I", blob, 9, 5)  # claim m=5 without more payload
    with pytest.raises(TruncationError):
        read_pvol(bytes(blob))


def test_unknown_dtype_code_rejected():
    blob = bytearray(write_pvol(MaskVolume(np.zeros((1, 2, 2), dtype=np.uint8))))
    blob[8] = 7
    with pytest.raises(SchemaError):
        read_pvol(bytes(blob))


def test_bad_version_rejected():
    blob = bytearray(write_pvol(Volume(np.zeros((1, 1, 1), dtype=np.float32))))
    struct.pack_into("<I", blob, 4, 9)
    with pytest.raises(SchemaError):
        read_pvol(bytes(blob))


def test_mask_with_value_two_rejected():
    data = np.zeros((1, 2, 2), dtype=np.uint8)
    data[0, 0, 0] = 2
    with pytest.raises(SchemaError):
        MaskVolume(data)


def test_mask_file_with_value_two_rejected_on_read():
    blob = bytearray(write_pvol(MaskVolume(np.zeros((1, 2, 2), dtype=np.uint8))))
    blob[-1] = 2
    with pytest.raises(SchemaError):
        read_pvol(bytes(blob))


def test_mask_label_check_names_the_values_found():
    for bad, named in ((np.nan, "nan"), (-1.0, "-1"), (0.5, "0.5"), (2.0, "2")):
        data = np.array([[[0.0, 1.0], [bad, 1.0]]])
        with pytest.raises(SchemaError, match=f"found values .*{named}"):
            MaskVolume(data)
    labels = np.array([[[0, 1], [1, 0]]])
    for data in (labels.astype(bool), labels.astype(np.float32), labels.astype(np.float64)):
        mask = MaskVolume(data)
        assert mask.data.dtype == np.uint8 and (mask.data == labels).all()


def test_volume_rejects_nonfinite():
    data = np.zeros((1, 2, 2), dtype=np.float32)
    data[0, 0, 0] = np.nan
    with pytest.raises(SchemaError):
        Volume(data)


def test_volume_rejects_wrong_rank():
    with pytest.raises(SchemaError):
        Volume(np.zeros((2, 2), dtype=np.float32))
    for cls in (Volume, MaskVolume, ProbVolume):
        for shape in ((2, 2), (1, 2, 2, 2), (0, 2, 2)):
            with pytest.raises(SchemaError, match="3-D|>= 1"):
                cls(np.zeros(shape, dtype=np.float32))
    blob = bytearray(write_pvol(Volume(np.zeros((1, 2, 2), dtype=np.float32))))
    struct.pack_into("<I", blob, 9, 0)  # m = 0, with the payload that promises
    with pytest.raises(SchemaError, match=">= 1"):
        read_pvol(bytes(blob[:33]))


def test_integer_data_takes_the_class_dtype():
    data = np.ones((1, 2, 2), dtype=np.int64)
    assert Volume(data).data.dtype == np.float32
    assert ProbVolume(data).data.dtype == np.float32
    assert MaskVolume(data).data.dtype == np.uint8
    # a floating array keeps its precision
    assert Volume(data.astype(np.float64)).data.dtype == np.float64


def test_write_refuses_a_non_volume():
    with pytest.raises(SchemaError, match="object"):
        write_pvol(object())
    with pytest.raises(SchemaError):
        write_pvol(np.zeros((1, 2, 2), dtype=np.float32))


@pytest.mark.parametrize("spacing", [(1, float("nan"), 1), (1, 1, float("inf")), (-1, 1, 1),
                                     (1, 0, 1), (1, 1)])
def test_spacing_must_be_three_finite_values_above_zero(spacing):
    for cls in (Volume, MaskVolume, ProbVolume):
        with pytest.raises(SchemaError, match="spacing"):
            cls(np.zeros((2, 3, 4), dtype=np.float32), spacing)


def test_prob_volume_range_validation():
    with pytest.raises(SchemaError):
        ProbVolume(np.full((1, 2, 2), 1.5, dtype=np.float32))
    p = ProbVolume(np.full((1, 2, 2), 0.25, dtype=np.float32))
    assert p.dims == (1, 2, 2)


def test_file_roundtrip(tmp_path, rng):
    path = tmp_path / "v.pvol"
    v = Volume(rng.standard_normal((2, 4, 4)).astype(np.float32), (3.0, 1.0, 1.0))
    write_pvol_file(path, v)
    out = read_pvol_file(path)
    assert out.data.tobytes() == v.data.tobytes()
    assert out.spacing == v.spacing


def test_prob_volume_written_as_f32(rng):
    p = ProbVolume(rng.uniform(size=(2, 2, 2)).astype(np.float32))
    out = read_pvol(write_pvol(p))
    assert isinstance(out, Volume)
    np.testing.assert_array_equal(out.data, p.data)
