"""Exception hierarchy shared by all modules, and the JSON reader onto it."""
import json


class ProgExploreError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ProgExploreError, ValueError):
    """Invalid argument or malformed input data."""


class ParseError(InputError):
    """Malformed textual input; carries a location when known."""

    def __init__(self, message, line=None, pointer=None):
        loc = ""
        if line is not None:
            loc = f" (line {line})"
        elif pointer is not None:
            loc = f" (at {pointer})"
        super().__init__(message + loc)
        self.line = line
        self.pointer = pointer


class ResourceBudgetError(ProgExploreError, RuntimeError):
    """A computation exceeded its explicit budget; never a wrong answer."""


class SplitterBudgetError(ResourceBudgetError):
    """The pre-core recursion ran out of splitter-game depth budget."""


class InternalInvariantError(ProgExploreError, RuntimeError):
    """An invariant that should hold by construction was violated."""


def read_json(text: str, what=None):
    """``json.loads(text)``; bad or too deeply nested JSON raises ParseError
    ("invalid JSON", with the line), or InputError naming ``what`` if given."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        msg, line = exc.msg, exc.lineno
    except RecursionError:
        msg, line = "nested too deeply", None
    if what is None:
        raise ParseError(f"invalid JSON: {msg}", line=line)
    raise InputError(f"{what} is not valid JSON: {msg}")
