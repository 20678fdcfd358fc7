"""Versioned binary checkpoints with bit-exact round trips.

Layout: magic line, 8-byte big-endian header length, a JSON header listing
config, metadata, and tensor descriptors (name, shape, byte offset), then
the raw float64 blobs concatenated in descriptor order. Writing the same
arrays twice yields byte-identical files, so checkpoint hashes double as
determinism probes. Each tensor is written from its own buffer and read
straight into its own array, so neither side holds a second copy of the
payload.
"""

import contextlib
import hashlib
import json
import math
import os

import numpy as np

MAGIC = b"GRCK1\n"


def save_checkpoint(path, config_dict, named_arrays, meta=None):
    """Write the checkpoint; a None meta is written as {}.

    The file is written as path + ".tmp" and moved onto path once whole, so
    a write that raises or is killed never leaves a truncated file at path.

    A config or meta that is not a JSON object raises ValueError naming the
    path before anything is written, as load_checkpoint would refuse it.
    """
    meta = {} if meta is None else meta
    for key, value in (("config", config_dict), ("meta", meta)):
        if not isinstance(value, dict):
            raise ValueError(f"{path}: {key} must be a JSON object, got {value!r}")
    descriptors = []
    offset = 0
    arrays = []
    for name, arr in named_arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)  # the array itself when it is one already
        descriptors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
        arrays.append(arr)
    header = json.dumps(
        {"config": config_dict, "meta": meta, "tensors": descriptors},
        sort_keys=True,
    ).encode()
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(len(header).to_bytes(8, "big"))
            f.write(header)
            for arr in arrays:
                f.write(arr.reshape(-1).view(np.uint8))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (config dict, list of (name, array), meta dict).

    A file whose header or payload disagrees with what save_checkpoint writes
    raises ValueError naming the path (and the tensor, where one is at fault):
    the config, and the meta where present, must be JSON objects; tensors
    must have unique names and non-negative integer shapes, and must follow
    one another in the payload with no gap or overlap.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        start = len(MAGIC) + 8
        lead = f.read(start)
        magic = lead[: len(MAGIC)]
        if magic != MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic {magic!r})")
        header_len = int.from_bytes(lead[len(MAGIC) :], "big")
        if start + header_len > size:
            raise ValueError(f"{path}: truncated header ({size}-byte file)")
        header = f.read(header_len)
        return _read_tensors(path, f, header, size - start - header_len)


def _read_tensors(path, f, header, payload_len):
    """Check the header, then read each tensor it lists from f, which stands at the payload's start."""
    try:
        header = json.loads(header.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"{path}: unreadable header ({e})") from None
    tensors = header.get("tensors") if isinstance(header, dict) else None
    if not isinstance(tensors, list) or "config" not in header:
        raise ValueError(f"{path}: header needs a config and a tensors list")
    for key in ("config", "meta"):  # meta may be absent
        if not isinstance(header.get(key, {}), dict):
            raise ValueError(f"{path}: header's {key} must be a JSON object, got {header[key]!r}")
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
        if end > payload_len:
            raise ValueError(
                f"{path}: truncated in tensor {name!r} "
                f"(needs payload bytes up to {end}, file has {payload_len})"
            )
        arr = np.empty(shape)
        if f.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise ValueError(f"{path}: tensor {name!r} ended early; the file changed while it was read")
        arrays.append((name, arr))
        expected = end
    if payload_len != expected:
        raise ValueError(
            f"{path}: payload is {payload_len} bytes, its tensors describe {expected}"
        )
    return header["config"], arrays, header.get("meta", {})


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
