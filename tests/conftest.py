"""Suite-wide set-up: let a failing `@given` test report its falsifying example.

When a `@given` test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` to write a patch for the example, and that
module imports `libcst` where it is installed. Importing libcst 1.0.1 raises
a DeprecationWarning, which pyproject.toml's `filterwarnings` turns into an
error, so the run ended in a pytest INTERNALERROR in place of the example.
Importing the module once here, with that warning ignored, leaves it cached
for the plugin; the warning policy for everything else is unchanged.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin skips the patch and never imports it
        pass
