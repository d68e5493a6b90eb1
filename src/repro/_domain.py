"""The one domain check for numeric arguments (DESIGN §6).

Every constructor and entry point checks each numeric parameter with
:func:`count` or :func:`real`.  Both return the value exactly as
given, never converted, so what a site stores, and every fingerprint
built from it, is unchanged; anything outside the domain, a string
included, raises the site's ``ValueError`` (sub)class naming the field
and the value::

    self.depth = count("depth", depth, 1)
    real("annealing.cooling", cooling, above=0, below=1)
"""

from __future__ import annotations

import math


def count(name, value, least=0, below=None, *, optional=False,
          error=ValueError):
    """``value`` if it is an int (not a bool) with ``least <= value``
    (no lower bound if ``least`` is None) and, given ``below``,
    ``value < below``; ``None`` too if ``optional``.  Anything else
    raises ``error`` naming ``name``."""
    if isinstance(value, int) and not isinstance(value, bool):
        if (least is None or value >= least) \
                and (below is None or value < below):
            return value
    elif value is None and optional:
        return value
    raise _error(error, name, value, optional, "an int",
                 (">=", least), ("<", below))


def real(name, value, *, least=None, above=None, most=None, below=None,
         optional=False, error=ValueError):
    """``value`` if it is an int or a finite float (not a bool) inside
    the interval the bounds give: ``least`` and ``most`` are closed
    ends, ``above`` and ``below`` open ones, and a missing end is
    unbounded; ``None`` too if ``optional``.  Anything else raises
    ``error`` naming ``name``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if (isinstance(value, int) or math.isfinite(value)) \
                and (least is None or value >= least) \
                and (above is None or value > above) \
                and (most is None or value <= most) \
                and (below is None or value < below):
            return value
    elif value is None and optional:
        return value
    raise _error(error, name, value, optional, "a finite number",
                 (">=", least), (">", above), ("<=", most), ("<", below))


def _error(error, name, value, optional, kind, *ends):
    """``error`` saying ``name`` must be a ``kind`` inside ``ends``
    (``(operator, bound)`` pairs, None bounds left out)."""
    domain = " and ".join(f"{op} {end}" for op, end in ends
                          if end is not None)
    return error(f"{name} must be {'None or ' if optional else ''}"
                 f"{kind}{' ' if domain else ''}{domain}, got {value!r}")
