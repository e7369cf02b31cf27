"""Binary weight checkpoints: byte layout, roundtrips, error taxonomy."""

import hashlib
import struct

import numpy as np
import pytest

from pbrseg.checkpoint import checkpoint_digest, load_checkpoint, save_checkpoint
from pbrseg.errors import MagicError, SchemaError, TruncationError
from pbrseg.unet import UNet, UNetConfig, build_unet


def _hand_pack(params, in_channels, base_width):
    """Reference serializer written independently of the library."""
    out = b"PBRW" + struct.pack("<IIII", 1, in_channels, base_width, len(params))
    for name, arr in params.items():
        nb = name.encode()
        out += struct.pack("<H", len(nb)) + nb
        out += struct.pack("<B", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.astype("<f4").tobytes()
    return out


def test_bytes_match_hand_packed(rng):
    params = {
        "enc.w": rng.standard_normal((2, 1, 3, 3)).astype(np.float32),
        "enc.b": rng.standard_normal(2).astype(np.float32),
    }
    assert save_checkpoint(params, 1, 8) == _hand_pack(params, 1, 8)


def test_hand_packed_bytes_parse(rng):
    params = {"w": rng.standard_normal((3, 4)).astype(np.float32)}
    ck = load_checkpoint(_hand_pack(params, 3, 16))
    assert ck.in_channels == 3 and ck.base_width == 16
    assert ck.params["w"].tobytes() == params["w"].tobytes()


def test_roundtrip_bit_exact(rng):
    params = {
        "a": rng.standard_normal((2, 3, 3, 3)).astype(np.float32),
        "b": rng.standard_normal(7).astype(np.float32),
        "c": rng.standard_normal((1, 1, 1, 1)).astype(np.float32),
    }
    ck = load_checkpoint(save_checkpoint(params, 5, 8))
    assert list(ck.params) == ["a", "b", "c"]
    for k in params:
        assert ck.params[k].tobytes() == params[k].tobytes()
        assert ck.params[k].shape == params[k].shape


def test_bad_magic():
    blob = b"XXXX" + save_checkpoint({}, 1, 8)[4:]
    with pytest.raises(MagicError):
        load_checkpoint(blob)


def test_truncated_file():
    blob = save_checkpoint({"w": np.zeros((4, 4), dtype=np.float32)}, 1, 8)
    with pytest.raises(TruncationError):
        load_checkpoint(blob[:-3])
    with pytest.raises(TruncationError):
        load_checkpoint(blob[:10])


def test_bad_version():
    blob = bytearray(save_checkpoint({}, 1, 8))
    struct.pack_into("<I", blob, 4, 2)
    with pytest.raises(SchemaError):
        load_checkpoint(bytes(blob))


@pytest.mark.parametrize("in_channels, base_width", [(0, 8), (1, 0), (0, 0)])
def test_header_no_net_can_take(in_channels, base_width):
    """A header below 1 channel or width is refused where the file is
    parsed, not later by the network's config check."""
    blob = save_checkpoint({"w": np.zeros(2, dtype=np.float32)}, in_channels, base_width)
    with pytest.raises(SchemaError, match=f"{in_channels} input channels and base width "
                                          f"{base_width}"):
        load_checkpoint(blob)


def test_duplicate_name():
    one = {"w": np.zeros(2, dtype=np.float32)}
    blob = bytearray(save_checkpoint(one, 1, 8))
    body = bytes(blob[20:])  # first array record
    struct.pack_into("<I", blob, 16, 2)  # claim two arrays
    with pytest.raises(SchemaError, match="duplicate"):
        load_checkpoint(bytes(blob) + body)


def test_unsupported_rank():
    blob = bytearray(_hand_pack({"w": np.zeros(1, dtype=np.float32)}, 1, 8))
    blob[20 + 2 + 1] = 0  # rank byte after u16 len + name "w"
    with pytest.raises(SchemaError, match="rank"):
        load_checkpoint(bytes(blob))


def test_trailing_bytes():
    blob = save_checkpoint({"w": np.zeros(3, dtype=np.float32)}, 1, 8)
    with pytest.raises(SchemaError, match="trailing"):
        load_checkpoint(blob + b"\x00")


def test_digest_matches_sha256(rng):
    blob = save_checkpoint({"w": rng.standard_normal(5).astype(np.float32)}, 1, 8)
    assert checkpoint_digest(blob) == hashlib.sha256(blob).hexdigest()


def test_unet_save_load_forward_identical(rng):
    net = build_unet(UNetConfig(in_channels=1, base_width=2), seed=3)
    blob = save_checkpoint(net.params, 1, 2)
    net2 = UNet.load(blob)
    x = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
    np.testing.assert_array_equal(net.forward(x), net2.forward(x))


@pytest.mark.parametrize("in_channels,base_width", [(1, 1), (3, 2), (5, 4), (7, 3)])
def test_unet_roundtrip_every_architecture(in_channels, base_width):
    net = build_unet(UNetConfig(in_channels, base_width=base_width), seed=in_channels)
    net2 = UNet.load(net.save())
    assert net2.config == net.config
    assert set(net2.params) == set(net.params)
    for k in net.params:
        np.testing.assert_array_equal(net2.params[k], net.params[k])


def _schema_error(params):
    with pytest.raises(SchemaError) as e:
        UNet.load(save_checkpoint(params, 1, 2))
    return str(e.value)


def test_unet_load_rejects_missing_extra_and_misshapen_arrays():
    params = build_unet(UNetConfig(in_channels=1, base_width=2)).params
    missing = {k: v for k, v in params.items() if k != "mid.conv1.b"}
    assert "missing ['mid.conv1.b'], extra []" in _schema_error(missing)
    assert "missing [], extra ['stray.w']" in _schema_error(
        {**params, "stray.w": np.zeros((1, 1), np.float32)})
    wrong = {**params, "dec2.up.w": np.zeros((4, 8, 2, 2), np.float32)}
    assert "'dec2.up.w' has shape (4, 8, 2, 2), expected (8, 4, 2, 2)" in _schema_error(wrong)
