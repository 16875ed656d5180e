"""Project-specific rule set; importing this package registers them all.

Each module defines one rule (or one tightly-related family) and
documents the contract it protects.  See ``docs/static_analysis.md``
for the rule catalogue and the suppression syntax.
"""

from __future__ import annotations

from . import broad_except     # noqa: F401
from . import config_validation  # noqa: F401
from . import dtype_discipline   # noqa: F401
from . import float_eq           # noqa: F401
from . import hot_loop           # noqa: F401
from . import mutable_default    # noqa: F401
from . import nondeterminism     # noqa: F401
