"""Exception types shared across the package, and the key and type checks
that raise one for a file, record or state dict that is not as expected."""


class SurgflowError(Exception):
    pass


class DimensionError(SurgflowError, ValueError):
    """Operand shapes are incompatible."""


class ConfigError(SurgflowError, ValueError):
    """A configuration value is invalid or inconsistent."""


class InputError(SurgflowError, ValueError):
    """Input data violates a precondition."""


class VocabError(SurgflowError, KeyError):
    """Unknown token or token id."""


class StateError(SurgflowError, RuntimeError):
    """Operation invalid in the current object state."""


class NumericError(SurgflowError, ArithmeticError):
    """A computation produced NaN or Inf."""


def require_keys(source, keys, expected) -> None:
    """Raise an InputError naming `source` unless `keys` are exactly
    `expected`, listing (at most five of) the unexpected and missing ones."""
    problems = [f"{kind} keys {names[:5]}" for kind, names in
                (("unexpected", sorted(set(keys) - set(expected))),
                 ("missing", sorted(set(expected) - set(keys)))) if names]
    if problems:
        raise InputError(f"{source}: " + ", ".join(problems))


# the Python types of a JSON value of each kind; a bool is none of them
_KINDS = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
          "str": ((str,), "a string"), "list": ((list,), "a list"),
          "dict": ((dict,), "an object")}


def require_types(source, record, kinds: dict, exact: bool = False):
    """`record` when it is a JSON object holding, at each key of `kinds`, a
    value of that key's kind: "int", "float" (an int is accepted), "str",
    "list" or "dict"; with `exact`, no other key either.  Otherwise an
    InputError naming `source` and the keys that fail."""
    if not isinstance(record, dict):
        raise InputError(f"{source}: expected a JSON object, "
                         f"not {type(record).__name__}")
    if exact:
        require_keys(source, record, kinds)
    for key, kind in kinds.items():
        accepted, what = _KINDS[kind]
        if key not in record:
            raise InputError(f"{source}: missing key {key!r}")
        if type(record[key]) not in accepted:
            raise InputError(f"{source}: {key} must be {what}, "
                             f"not {record[key]!r}")
    return record
