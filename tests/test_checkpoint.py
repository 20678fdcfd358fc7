import json
import tracemalloc

import numpy as np
import pytest

from grouprec.checkpoint import MAGIC, file_sha256, load_checkpoint, save_checkpoint

import reference as ref


def sample_arrays(rng):
    return [
        ("emb", rng.normal(size=(7, 3))),
        ("bias", rng.normal(size=5)),
    ]


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = sample_arrays(rng)
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"lr": 0.01, "seed": 3}, arrays, meta={"best_epoch": 4})
    cfg, back, meta = load_checkpoint(path)
    assert cfg == {"lr": 0.01, "seed": 3}
    assert meta == {"best_epoch": 4}
    for (n1, a1), (n2, a2) in zip(arrays, back):
        assert n1 == n2
        assert a1.tobytes() == a2.tobytes()


def test_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    arrays = sample_arrays(rng)
    p1, p2 = tmp_path / "x.ckpt", tmp_path / "y.ckpt"
    save_checkpoint(p1, {"k": 1}, arrays)
    save_checkpoint(p2, {"k": 1}, arrays)
    assert file_sha256(p1) == file_sha256(p2)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE!!" + b"\x00" * 32)
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(path)


def test_loaded_arrays_are_writable_copies(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {}, [("w", np.ones(4))])
    _, arrays, _ = load_checkpoint(path)
    arrays[0][1][0] = 5.0  # must not raise: frombuffer views are read-only
    assert arrays[0][1][0] == 5.0


def test_truncated_magic_detected(tmp_path):
    path = tmp_path / "t.ckpt"
    path.write_bytes(MAGIC[:3])
    with pytest.raises(ValueError):
        load_checkpoint(path)


def damaged(tmp_path, cut):
    """Path of a saved checkpoint with its bytes passed through cut."""
    full = tmp_path / "full.ckpt"
    save_checkpoint(full, {"k": 1}, sample_arrays(np.random.default_rng(2)))
    path = tmp_path / "damaged.ckpt"
    path.write_bytes(cut(full.read_bytes()))
    return path


def test_truncated_payload_names_path_and_tensor(tmp_path):
    path = damaged(tmp_path, lambda b: b[:-8])
    with pytest.raises(ValueError, match=r"damaged\.ckpt: truncated in tensor 'bias'"):
        load_checkpoint(path)


def test_trailing_payload_bytes_rejected(tmp_path):
    path = damaged(tmp_path, lambda b: b + b"\x00" * 16)
    with pytest.raises(ValueError, match=r"damaged\.ckpt: payload is .* bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "cut, message",
    [
        (lambda b: b[: len(MAGIC) + 8 + 10], "truncated header"),
        (lambda b: b[: len(MAGIC) + 8] + b"\xff" + b[len(MAGIC) + 9 :], "unreadable header"),
    ],
    ids=["cut", "garbled"],
)
def test_damaged_header_names_path(tmp_path, cut, message):
    path = damaged(tmp_path, cut)
    with pytest.raises(ValueError, match=rf"damaged\.ckpt: {message}"):
        load_checkpoint(path)


def forged(tmp_path, header, payload):
    """Path of a file framed as save_checkpoint frames it, around a hand-made header."""
    blob = json.dumps(header).encode()
    path = tmp_path / "damaged.ckpt"
    path.write_bytes(MAGIC + len(blob).to_bytes(8, "big") + blob + payload)
    return path


def tensor(name, shape, offset):
    return {"name": name, "shape": shape, "offset": offset}


@pytest.mark.parametrize(
    "tensors, message",
    [
        # each pair of 16-byte tensors fills the 32-byte payload exactly
        ([tensor("a", [2], 0), tensor("b", [2], 0)], "tensor 'b' starts at payload byte 0, not at byte 16"),
        ([tensor("a", [2], 16), tensor("b", [2], 0)], "tensor 'a' starts at payload byte 16, not at byte 0"),
        ([tensor("a", [2], 0), tensor("a", [2], 16)], "tensor 'a' appears twice"),
        ([tensor("a", [-2, -2], 0)], r"tensor 'a' has bad shape \[-2, -2\]"),
        ([tensor("a", [4.0], 0)], r"tensor 'a' has bad shape \[4\.0\]"),
        ([{"name": "a", "shape": [4]}], "bad tensor descriptor"),
        (None, "header needs a config and a tensors list"),
    ],
    ids=["overlap", "out-of-order", "duplicate-name", "negative-shape", "float-shape", "no-offset", "no-tensors"],
)
def test_forged_descriptors_name_path(tmp_path, tensors, message):
    header = {"config": {}, "meta": {}}
    if tensors is not None:
        header["tensors"] = tensors
    path = forged(tmp_path, header, bytes(32))
    with pytest.raises(ValueError, match=rf"damaged\.ckpt: {message}"):
        load_checkpoint(path)



@pytest.mark.parametrize(
    "key, value",
    [("config", []), ("config", "lr"), ("config", None), ("meta", []), ("meta", 3), ("meta", None)],
)
def test_config_and_meta_that_are_not_objects_name_path(tmp_path, key, value):
    header = {"config": {}, "meta": {}, "tensors": [tensor("a", [4], 0)]}
    header[key] = value
    path = forged(tmp_path, header, bytes(32))
    with pytest.raises(ValueError, match=rf"damaged\.ckpt: header's {key} must be a JSON object, got "):
        load_checkpoint(path)


def test_a_header_without_meta_loads_an_empty_meta(tmp_path):
    path = forged(tmp_path, {"config": {"k": 1}, "tensors": [tensor("a", [4], 0)]}, bytes(32))
    cfg, arrays, meta = load_checkpoint(path)
    assert cfg == {"k": 1} and meta == {} and [name for name, _ in arrays] == ["a"]


@pytest.mark.parametrize(
    "config, meta, shown",
    [([], None, "config must be a JSON object, got []"), ({}, [], "meta must be a JSON object, got []"),
     ({}, [{"best_epoch": 4}], "meta must be a JSON object, got [{'best_epoch': 4}]")],
    ids=["list-config", "empty-list-meta", "list-meta"],
)
def test_save_refuses_a_config_or_meta_that_load_would_refuse(tmp_path, config, meta, shown):
    path = tmp_path / "a.ckpt"
    with pytest.raises(ValueError) as e:
        save_checkpoint(path, config, [("w", np.ones(4))], meta=meta)
    assert str(e.value) == f"{path}: {shown}"
    assert not path.exists()


def test_save_writes_a_none_meta_as_an_empty_object(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"k": 1}, [("w", np.ones(4))], meta=None)
    assert load_checkpoint(path)[2] == {}
    assert b'"meta": {}' in path.read_bytes()


def test_file_bytes_equal_the_copying_writer(tmp_path):
    rng = np.random.default_rng(5)
    arrays = [
        ("emb", rng.normal(size=(7, 3))),
        ("transposed", rng.normal(size=(4, 6)).T),  # not contiguous: written in C order
        ("counts", np.arange(5, dtype=np.int32)),  # cast to float64
        ("scalar", np.float64(2.5)),  # written as shape [1]
        ("empty", np.zeros((0, 3))),
    ]
    meta = {"best_epoch": 2}
    save_checkpoint(tmp_path / "new.ckpt", {"k": 1}, iter(arrays), meta=meta)
    ref.save_checkpoint(tmp_path / "old.ckpt", {"k": 1}, arrays, meta=meta)
    assert (tmp_path / "new.ckpt").read_bytes() == (tmp_path / "old.ckpt").read_bytes()
    _, back, _ = load_checkpoint(tmp_path / "new.ckpt")
    for (name, arr), (back_name, got) in zip(arrays, back):
        assert back_name == name and got.flags.c_contiguous and got.flags.writeable
        assert got.tobytes() == np.ascontiguousarray(arr, dtype=np.float64).tobytes()


def test_save_and_load_hold_no_second_copy_of_the_payload(tmp_path):
    rng = np.random.default_rng(6)
    arrays = [("a", rng.normal(size=(400, 500))), ("b", rng.normal(size=(300, 200))), ("c", rng.normal(size=64))]
    payload = sum(arr.nbytes for _, arr in arrays)
    path = tmp_path / "big.ckpt"
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in (("save", lambda: save_checkpoint(path, {"k": 1}, arrays)),
                           ("load", lambda: load_checkpoint(path))):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # a copy of every tensor's bytes made the save peak one payload and the load peak two
    assert peaks["save"] < 0.05 * payload
    assert peaks["load"] < 1.05 * payload
