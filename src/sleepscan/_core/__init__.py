"""Raw instruction decode kernel: one compiled pattern, one pass per unit."""

from __future__ import annotations

import re

BACKEND = "python"  # the only kernel; named in benchmark run metadata

# any byte but a PUSH (tried first: most instructions are one byte), one
# alternative per PUSH width (the opcode byte and its immediate), and last a
# PUSH whose immediate overruns the end of the code
_TOKEN = re.compile(
    rb"[^\x60-\x7f]|"
    + b"|".join(re.escape(bytes([0x5F + width])) + b".{%d}" % width for width in range(1, 33))
    + rb"|[\x60-\x7f].*",
    re.DOTALL)


def decode_raw(code: bytes) -> tuple[list[bytes], int]:
    """Split ``code`` into one token per instruction: its opcode byte and a
    PUSH's immediate bytes.

    Returns (tokens, truncated_at). ``truncated_at`` is -1 on success, or the
    pc of a PUSH whose immediate overruns the end of the code; that PUSH is
    not a token.
    """
    tokens = _TOKEN.findall(code)
    if tokens:
        last = tokens[-1]
        if 0x60 <= last[0] <= 0x7F and len(last) < last[0] - 0x5E:
            tokens.pop()
            return tokens, len(code) - len(last)
    return tokens, -1
