"""Exception hierarchy shared by all permx modules.

Every refusal is a ``PreconditionViolated`` (an input outside the
operation's domain; CLI exit code 2) or a ``ResourceLimit`` (an
exhausted node budget or size cap; exit 3). Both derive from
``PermxError``; the message names the failed check.
"""


class PermxError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionViolated(PermxError):
    """An operation was called outside its stated domain."""


class ResourceLimit(PermxError):
    """A node budget or size cap was exceeded before completion."""
