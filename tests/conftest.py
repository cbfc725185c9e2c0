import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

try:
    from hypothesis import settings
except ImportError:         # the property tests skip themselves
    pass
else:
    # derandomized and bounded, so every run of the suite draws the same
    # examples in about the same time and writes no example database
    settings.register_profile("cagekit", derandomize=True, max_examples=60,
                              deadline=None, database=None)
    settings.load_profile("cagekit")
