"""Test-wide settings: Hypothesis draws the same examples on every run and
keeps no example database, and whatever else it stores (the constants it
collects from the source, say) goes to a temporary directory that lives for
one test session, so no test reads or writes a file in the checkout."""

import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("hermetic", database=None, derandomize=True)
settings.load_profile("hermetic")

_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="ltskit-hypothesis-")
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)
set_hypothesis_home_dir(_HYPOTHESIS_HOME)
