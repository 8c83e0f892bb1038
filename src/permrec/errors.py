"""Shared exception types."""


class CapacityError(RuntimeError):
    """A computation would exceed the configured memory/size budget."""


class CacheError(RuntimeError):
    """A cache file is missing, corrupt, or does not match the request."""
