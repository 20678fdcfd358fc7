"""Versioned binary checkpoints with bit-exact round trips.

Layout: magic line, 8-byte big-endian header length, a JSON header listing
config, metadata, and tensor descriptors (name, shape, byte offset), then
the raw float64 blobs concatenated in descriptor order. Writing the same
arrays twice yields byte-identical files, so checkpoint hashes double as
determinism probes.
"""

import hashlib
import json

import numpy as np

MAGIC = b"GRCK1\n"


def save_checkpoint(path, config_dict, named_arrays, meta=None):
    descriptors = []
    offset = 0
    blobs = []
    for name, arr in named_arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        blob = arr.tobytes()
        descriptors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += len(blob)
        blobs.append(blob)
    header = json.dumps(
        {"config": config_dict, "meta": meta or {}, "tensors": descriptors},
        sort_keys=True,
    ).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(header).to_bytes(8, "big"))
        f.write(header)
        for blob in blobs:
            f.write(blob)


def load_checkpoint(path):
    """Returns (config dict, list of (name, array), meta dict).

    A file whose header or payload length disagrees with its descriptors
    raises ValueError naming the path (and the tensor, on truncation).
    """
    with open(path, "rb") as f:
        data = f.read()
    magic = data[: len(MAGIC)]
    if magic != MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic {magic!r})")
    start = len(MAGIC) + 8
    header_len = int.from_bytes(data[len(MAGIC) : start], "big")
    if start + header_len > len(data):
        raise ValueError(f"{path}: truncated header ({len(data)}-byte file)")
    try:
        header = json.loads(data[start : start + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"{path}: unreadable header ({e})") from None
    payload = memoryview(data)[start + header_len :]
    arrays = []
    expected = 0
    for desc in header["tensors"]:
        shape = tuple(desc["shape"])
        count = int(np.prod(shape)) if shape else 1
        offset = desc["offset"]
        end = offset + count * 8
        if end > len(payload):
            raise ValueError(
                f"{path}: truncated in tensor {desc['name']!r} "
                f"(needs payload bytes up to {end}, file has {len(payload)})"
            )
        arr = np.frombuffer(payload, dtype=np.float64, count=count, offset=offset)
        arrays.append((desc["name"], arr.reshape(shape).copy()))
        expected += count * 8
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, its tensors describe {expected}"
        )
    return header["config"], arrays, header.get("meta", {})


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
