"""Raw instruction decode kernel."""

from __future__ import annotations

BACKEND = "python"  # the only kernel; named in benchmark run metadata


def decode_raw(code: bytes) -> tuple[list[tuple[int, int, bytes]], int]:
    """Split ``code`` into (pc, opcode byte, immediate bytes) triples.

    Returns (instructions, truncated_at). ``truncated_at`` is -1 on success, or
    the pc of a PUSH whose immediate overruns the end of the code.
    """
    out: list[tuple[int, int, bytes]] = []
    i = 0
    n = len(code)
    while i < n:
        op = code[i]
        if 0x60 <= op <= 0x7F:
            width = op - 0x5F
            if i + 1 + width > n:
                return out, i
            out.append((i, op, code[i + 1:i + 1 + width]))
            i += 1 + width
        else:
            out.append((i, op, b""))
            i += 1
    return out, -1
