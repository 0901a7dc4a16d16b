"""Where the measured code comes from.

The benchmark measures the ``whitmod`` in the checkout's own ``src/``,
never an installed copy: ``use_checkout`` puts ``src/`` first on the path
and refuses to go on if the import resolves anywhere else.  This module
is imported during every worker's set-up, so it imports nothing heavy.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "whitmod")


class WrongSource(RuntimeError):
    """whitmod is missing from the checkout or imports from elsewhere."""


def use_checkout():
    """Import whitmod from the checkout's src/ and return the module."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise WrongSource("no whitmod package under %s" % SRC)
    sys.path.insert(0, SRC)
    import whitmod

    where = os.path.dirname(os.path.realpath(whitmod.__file__))
    if where != os.path.realpath(PACKAGE):
        raise WrongSource("whitmod imports from %s, not from %s" % (where, PACKAGE))
    return whitmod
