"""EVM opcode table (through the Shanghai set)."""

from __future__ import annotations

# byte -> (mnemonic, immediate length, stack pops, stack pushes)
TABLE: dict[int, tuple[str, int, int, int]] = {
    0x00: ("STOP", 0, 0, 0),
    0x01: ("ADD", 0, 2, 1),
    0x02: ("MUL", 0, 2, 1),
    0x03: ("SUB", 0, 2, 1),
    0x04: ("DIV", 0, 2, 1),
    0x05: ("SDIV", 0, 2, 1),
    0x06: ("MOD", 0, 2, 1),
    0x07: ("SMOD", 0, 2, 1),
    0x08: ("ADDMOD", 0, 3, 1),
    0x09: ("MULMOD", 0, 3, 1),
    0x0A: ("EXP", 0, 2, 1),
    0x0B: ("SIGNEXTEND", 0, 2, 1),
    0x10: ("LT", 0, 2, 1),
    0x11: ("GT", 0, 2, 1),
    0x12: ("SLT", 0, 2, 1),
    0x13: ("SGT", 0, 2, 1),
    0x14: ("EQ", 0, 2, 1),
    0x15: ("ISZERO", 0, 1, 1),
    0x16: ("AND", 0, 2, 1),
    0x17: ("OR", 0, 2, 1),
    0x18: ("XOR", 0, 2, 1),
    0x19: ("NOT", 0, 1, 1),
    0x1A: ("BYTE", 0, 2, 1),
    0x1B: ("SHL", 0, 2, 1),
    0x1C: ("SHR", 0, 2, 1),
    0x1D: ("SAR", 0, 2, 1),
    0x20: ("SHA3", 0, 2, 1),
    0x30: ("ADDRESS", 0, 0, 1),
    0x31: ("BALANCE", 0, 1, 1),
    0x32: ("ORIGIN", 0, 0, 1),
    0x33: ("CALLER", 0, 0, 1),
    0x34: ("CALLVALUE", 0, 0, 1),
    0x35: ("CALLDATALOAD", 0, 1, 1),
    0x36: ("CALLDATASIZE", 0, 0, 1),
    0x37: ("CALLDATACOPY", 0, 3, 0),
    0x38: ("CODESIZE", 0, 0, 1),
    0x39: ("CODECOPY", 0, 3, 0),
    0x3A: ("GASPRICE", 0, 0, 1),
    0x3B: ("EXTCODESIZE", 0, 1, 1),
    0x3C: ("EXTCODECOPY", 0, 4, 0),
    0x3D: ("RETURNDATASIZE", 0, 0, 1),
    0x3E: ("RETURNDATACOPY", 0, 3, 0),
    0x3F: ("EXTCODEHASH", 0, 1, 1),
    0x40: ("BLOCKHASH", 0, 1, 1),
    0x41: ("COINBASE", 0, 0, 1),
    0x42: ("TIMESTAMP", 0, 0, 1),
    0x43: ("NUMBER", 0, 0, 1),
    0x44: ("PREVRANDAO", 0, 0, 1),
    0x45: ("GASLIMIT", 0, 0, 1),
    0x46: ("CHAINID", 0, 0, 1),
    0x47: ("SELFBALANCE", 0, 0, 1),
    0x48: ("BASEFEE", 0, 0, 1),
    0x50: ("POP", 0, 1, 0),
    0x51: ("MLOAD", 0, 1, 1),
    0x52: ("MSTORE", 0, 2, 0),
    0x53: ("MSTORE8", 0, 2, 0),
    0x54: ("SLOAD", 0, 1, 1),
    0x55: ("SSTORE", 0, 2, 0),
    0x56: ("JUMP", 0, 1, 0),
    0x57: ("JUMPI", 0, 2, 0),
    0x58: ("PC", 0, 0, 1),
    0x59: ("MSIZE", 0, 0, 1),
    0x5A: ("GAS", 0, 0, 1),
    0x5B: ("JUMPDEST", 0, 0, 0),
    0x5F: ("PUSH0", 0, 0, 1),
    0xF0: ("CREATE", 0, 3, 1),
    0xF1: ("CALL", 0, 7, 1),
    0xF2: ("CALLCODE", 0, 7, 1),
    0xF3: ("RETURN", 0, 2, 0),
    0xF4: ("DELEGATECALL", 0, 6, 1),
    0xF5: ("CREATE2", 0, 4, 1),
    0xFA: ("STATICCALL", 0, 6, 1),
    0xFD: ("REVERT", 0, 2, 0),
    0xFE: ("INVALID", 0, 0, 0),
    0xFF: ("SELFDESTRUCT", 0, 1, 0),
}

for _n in range(1, 33):
    TABLE[0x5F + _n] = (f"PUSH{_n}", _n, 0, 1)
for _n in range(1, 17):
    TABLE[0x7F + _n] = (f"DUP{_n}", 0, _n, _n + 1)
    TABLE[0x8F + _n] = (f"SWAP{_n}", 0, _n + 1, _n + 1)
for _n in range(0, 5):
    TABLE[0xA0 + _n] = (f"LOG{_n}", 0, _n + 2, 0)

MNEMONIC_TO_BYTE: dict[str, int] = {name: byte for byte, (name, _, _, _) in TABLE.items()}


def mnemonic(byte: int) -> str:
    entry = TABLE.get(byte)
    return entry[0] if entry else f"UNKNOWN_0x{byte:02X}"
