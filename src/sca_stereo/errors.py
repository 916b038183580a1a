"""Exception types shared across the package.

Plain ``ValueError`` is used for invalid arguments (bad shapes, bad enum
values); the classes here mark conditions callers may want to handle
separately: non-finite numbers, malformed files and unusable run
configurations.
"""


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values."""


class FormatError(ValueError):
    """A file does not conform to its on-disk format.

    ``offset`` is the byte position at which parsing failed, and ``path`` the
    file, when the reader knows it; the message names both.
    """

    def __init__(self, message: str, offset: int, path=None):
        super().__init__(f"{'' if path is None else f'{path}: '}{message} (byte offset {offset})")
        self.message, self.offset, self.path = message, offset, path


class ConfigError(ValueError):
    """A run configuration is inconsistent or refers to missing inputs."""
