"""Setup shared by every test module."""

import warnings

# When a hypothesis test fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching, and with it libcst, from inside its report hook.
# libcst warns on import (a deprecated mypy_extensions.TypedDict), and under a
# test's filterwarnings("error") that warning raised in the hook, which ended
# the whole test run with INTERNALERROR.  Imported once here, with its warnings
# silenced, the module is already loaded when the hook asks for it.  Only this
# import is silenced: a warning raised by pinstairs still fails those tests.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the hook skips its patch, and imports nothing
        pass
