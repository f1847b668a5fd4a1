"""Minimal two-pass EVM assembler for building fixture artifacts.

Every emitted instruction carries a source span so fixtures get a realistic
per-instruction source map. Label references assemble to fixed-width PUSH2.
"""

from __future__ import annotations

from dataclasses import dataclass

from sleepscan.errors import MalformedItem
from sleepscan.opcodes import MNEMONIC_TO_BYTE

GENERATED = (-1, 0, -1)


@dataclass
class _Item:
    kind: str  # op | push | push_label | label
    payload: object
    span: tuple[int, int, int]


class Asm:
    def __init__(self, default_span=GENERATED):
        self.items: list[_Item] = []
        self.default_span = default_span

    def op(self, name: str, span=None) -> "Asm":
        assert name in MNEMONIC_TO_BYTE, name
        self.items.append(_Item("op", name, span or self.default_span))
        return self

    def push(self, value: int, span=None, width: int | None = None) -> "Asm":
        if width is None:
            width = max(1, (value.bit_length() + 7) // 8)
        self.items.append(_Item("push", (value, width), span or self.default_span))
        return self

    def push_label(self, label: str, span=None) -> "Asm":
        self.items.append(_Item("push_label", label, span or self.default_span))
        return self

    def label(self, name: str) -> "Asm":
        self.items.append(_Item("label", name, GENERATED))
        return self

    def jumpdest(self, name: str, span=None) -> "Asm":
        return self.label(name).op("JUMPDEST", span)

    def raw(self, other: "Asm") -> "Asm":
        self.items.extend(other.items)
        return self

    def assemble(self) -> tuple[bytes, list[tuple[int, int, int]]]:
        # pass 1: lay out pcs, collect label targets
        labels: dict[str, int] = {}
        pc = 0
        for item in self.items:
            if item.kind == "label":
                labels[item.payload] = pc
            elif item.kind == "op":
                pc += 1
            elif item.kind == "push":
                pc += 1 + item.payload[1]
            elif item.kind == "push_label":
                pc += 3
        # pass 2: emit
        code = bytearray()
        spans: list[tuple[int, int, int]] = []
        for item in self.items:
            if item.kind == "label":
                continue
            if item.kind == "op":
                code.append(MNEMONIC_TO_BYTE[item.payload])
            elif item.kind == "push":
                value, width = item.payload
                code.append(0x5F + width)
                code.extend(value.to_bytes(width, "big"))
            elif item.kind == "push_label":
                code.append(0x61)  # PUSH2
                code.extend(labels[item.payload].to_bytes(2, "big"))
            spans.append(item.span)
        return bytes(code), spans


def srcmap_text(spans: list[tuple[int, int, int]]) -> str:
    """Fully explicit (uncompressed) source-map encoding of the spans."""
    return ";".join(f"{s}:{l}:{f}:-" for s, l, f in spans)


def encode_source_map(spans: list[tuple[int, int, int]]) -> str:
    """Reference compressed encoding: a field equal to the previous item's is
    left empty, and trailing empty fields are dropped."""
    items: list[str] = []
    prev: tuple[int, int, int] | None = None
    for span in spans:
        fields = [str(value) for value in span]
        if prev is not None:
            fields = ["" if value == old else text
                      for text, value, old in zip(fields, span, prev)]
        while fields and fields[-1] == "":
            fields.pop()
        items.append(":".join(fields))
        prev = span
    return ";".join(items)


def decode_source_map_reference(encoded: str) -> list[tuple[int, int, int]]:
    """Reference decoder: parses every item afresh. An empty or missing field
    keeps the previous item's value, and an empty item repeats it."""
    if encoded == "":
        return []
    spans = []
    values = [0, 0, -1]
    for item in encoded.split(";"):
        if item:
            for i, raw in enumerate(item.split(":")[:3]):
                if raw != "":
                    try:
                        values[i] = int(raw)
                    except ValueError as exc:
                        raise MalformedItem(
                            f"non-integer field {raw!r} in item {item!r}") from exc
        spans.append(tuple(values))
    return spans
