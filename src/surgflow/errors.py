"""Exception types shared across the package, and the key check that
raises one for a file or state dict whose keys are not the expected ones."""


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
