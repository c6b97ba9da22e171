"""Setup shared by every test module."""

import warnings

import pytest

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


@pytest.fixture
def cold_caches():
    """Empty the caches that a unit of work fills: the tree searches, branch
    families, Wahl chains, culet scans and kept Vianna triangles.  A test that
    counts the work of a cold call then counts the same alone as in the full
    run, whatever ran before it."""
    from pinstairs import atf_geometry, hirzebruch_jung, intersection_theory, markov

    for cache in (markov._search, markov._family, hirzebruch_jung._wahl,
                  intersection_theory._culet):
        cache.cache_clear()
    atf_geometry._vianna_kept.clear()
