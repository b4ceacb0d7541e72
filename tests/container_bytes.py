"""Edit the parts of a model or folded-model file, as laid out in the
``starctr.container`` docstring, without going through the package's
writer: the tests use it to build files the reader must reject."""

import hashlib
import json


def split(raw):
    """(prefix bytes 0-7, header dict, payload bytes) of a container."""
    size = int.from_bytes(raw[8:16], "little")
    return raw[:8], json.loads(raw[16:16 + size]), raw[16 + size:]


def join(prefix, header, payload, rehash=False):
    """Re-pack a container; ``rehash`` makes the header's sha256 match."""
    if rehash:
        header["sha256"] = hashlib.sha256(payload).hexdigest()
    text = json.dumps(header).encode("utf-8")
    text += b" " * (-len(text) % 8)
    return prefix + len(text).to_bytes(8, "little") + text + payload


def edit_header(raw, edit):
    """Apply ``edit(header)`` in place to the JSON header of ``raw``."""
    prefix, header, payload = split(raw)
    edit(header)
    return join(prefix, header, payload)


def set_config(key, value):
    def edit(header):
        header["config"][key] = value
    return edit


def flip_payload_byte(raw):
    out = bytearray(raw)
    out[-1] ^= 0x01
    return bytes(out)


def header_length_past_eof(raw):
    return raw[:8] + len(raw).to_bytes(8, "little") + raw[16:]
