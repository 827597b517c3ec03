"""Environment-variable parsing shared by the engine's on/off knobs."""

from __future__ import annotations

import os

__all__ = ["env_flag"]


def env_flag(name):
    """The on/off knob ``name`` (default on).

    ``0``, ``false`` and ``off`` turn it off, in any case and with any
    surrounding whitespace (a trailing space from a shell or YAML file
    must not silently leave a layer on); anything else, or unset, is on.
    """
    return os.environ.get(name, "").strip().lower() not in ("0", "false", "off")
