"""Argument types the command-line entry points share."""

from __future__ import annotations

import argparse
import math


def positive_float(text: str) -> float:
    """argparse ``type=``: a finite number > 0, else a usage error.

    ``float`` alone lets ``nan``, ``inf`` and negatives through, and
    ``nan <= 0`` is False, so a later range check misses ``nan`` too.
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}"
        )
    return value
