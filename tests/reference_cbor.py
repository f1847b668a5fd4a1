"""The recursive CBOR walker ``ingestion._is_cbor_map`` must agree with: one
call per item, so it is a reference only for trailers nested no deeper than
the recursion limit."""

from __future__ import annotations


def is_cbor_map(data: bytes) -> bool:
    try:
        end = _item_end(data, 0)
    except (ValueError, IndexError):
        return False
    return bool(end == len(data) and data and (data[0] >> 5) == 5)


def _item_end(data: bytes, pos: int) -> int:
    initial = data[pos]
    major, info = initial >> 5, initial & 0x1F
    pos += 1
    if info < 24:
        arg = info
    elif info == 24:
        arg = data[pos]
        pos += 1
    elif info == 25:
        arg = int.from_bytes(data[pos:pos + 2], "big")
        pos += 2
    elif info == 26:
        arg = int.from_bytes(data[pos:pos + 4], "big")
        pos += 4
    elif info == 27:
        arg = int.from_bytes(data[pos:pos + 8], "big")
        pos += 8
    else:
        raise ValueError("indefinite-length or reserved CBOR item")
    if major in (0, 1, 7):  # ints, simple values
        return pos
    if major in (2, 3):  # byte/text string
        end = pos + arg
        if end > len(data):
            raise ValueError("string runs past end")
        return end
    if major == 4:  # array
        for _ in range(arg):
            pos = _item_end(data, pos)
        return pos
    if major == 5:  # map
        for _ in range(2 * arg):
            pos = _item_end(data, pos)
        return pos
    raise ValueError("tagged item")  # major 6
