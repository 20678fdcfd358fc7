"""Versioned binary checkpoints with bit-exact round trips.

Layout: magic line, 8-byte big-endian header length, a JSON header listing
config, metadata, and tensor descriptors (name, shape, byte offset), then
the raw float64 blobs concatenated in descriptor order. Writing the same
arrays twice yields byte-identical files, so checkpoint hashes double as
determinism probes.
"""

import hashlib
import json
import math

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

    A file whose header or payload disagrees with what save_checkpoint writes
    raises ValueError naming the path (and the tensor, where one is at fault):
    the config, and the meta where present, must be JSON objects; tensors
    must have unique names and non-negative integer shapes, and must follow
    one another in the payload with no gap or overlap.
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
    tensors = header.get("tensors") if isinstance(header, dict) else None
    if not isinstance(tensors, list) or "config" not in header:
        raise ValueError(f"{path}: header needs a config and a tensors list")
    for key in ("config", "meta"):  # meta may be absent
        if not isinstance(header.get(key, {}), dict):
            raise ValueError(f"{path}: header's {key} must be a JSON object, got {header[key]!r}")
    payload = memoryview(data)[start + header_len :]
    arrays = []
    names = set()
    expected = 0
    for desc in tensors:
        named = isinstance(desc, dict) and isinstance(desc.get("name"), str)
        if not (named and {"shape", "offset"} <= desc.keys()):
            raise ValueError(f"{path}: bad tensor descriptor {desc!r}")
        name, shape, offset = desc["name"], desc["shape"], desc["offset"]
        if name in names:
            raise ValueError(f"{path}: tensor {name!r} appears twice")
        names.add(name)
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ValueError(f"{path}: tensor {name!r} has bad shape {shape!r}")
        if offset != expected:
            raise ValueError(
                f"{path}: tensor {name!r} starts at payload byte {offset}, "
                f"not at byte {expected} where the tensors before it end"
            )
        count = math.prod(shape)
        end = expected + count * 8
        if end > len(payload):
            raise ValueError(
                f"{path}: truncated in tensor {name!r} "
                f"(needs payload bytes up to {end}, file has {len(payload)})"
            )
        arr = np.frombuffer(payload, dtype=np.float64, count=count, offset=expected)
        arrays.append((name, arr.reshape(shape).copy()))
        expected = end
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
