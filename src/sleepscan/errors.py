"""Exception hierarchy shared across the scanner."""


class SleepscanError(Exception):
    """Base class for all tool errors."""


class MissingArtifact(SleepscanError):
    """Artifact lacks runtime bytecode or an AST."""


class VersionUnparseable(SleepscanError):
    """No semantic compiler version could be resolved from metadata or pragma."""


class MapLengthMismatch(SleepscanError):
    """Source-map entry count differs from the disassembled instruction count."""


class MalformedItem(SleepscanError):
    """A source-map item contains a non-integer field."""


class TruncatedPush(SleepscanError):
    """A PUSH immediate runs past the end of the bytecode."""


class EntryNotFound(SleepscanError):
    """A target function has no resolvable dispatcher entry point."""


class UnlabeledContract(SleepscanError):
    """A report has no corresponding corpus label."""


class UnscorableEntry(SleepscanError):
    """A label without a contract or a report, or a label or finding of an unknown type."""
