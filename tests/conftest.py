"""Settings shared by every test module."""

import os
import tempfile

from hypothesis import settings

# Property tests draw the same examples on every run, take no deadline on a
# busy machine, and keep no example database. Hypothesis still caches the
# constants it reads from the source files: that cache goes to the temporary
# directory, not the checkout, unless HYPOTHESIS_STORAGE_DIRECTORY is set.
settings.register_profile("fairgraph", derandomize=True, deadline=None,
                          database=None, max_examples=50)
settings.load_profile("fairgraph")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "fairgraph-hypothesis"))
