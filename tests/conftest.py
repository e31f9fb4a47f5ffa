"""Test-suite set-up shared by every module.

A failing hypothesis test writes its falsifying example through
``hypothesis.extra._patching``, which imports libcst where it is installed,
and libcst's own imports raise ``DeprecationWarning``.  Under ``-W error``
that warning would turn the failure report into a pytest INTERNALERROR with
no example, so the module is imported once here with that warning ignored.
Only warnings raised while this import runs are ignored.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
