"""Strict key checking for the common report protocol.

:class:`~repro.serving.service.ServiceReport` (and its subclass
:class:`~repro.serving.fleet.FleetReport`) and
:class:`~repro.accel.runtime.RuntimeReport` serialize to a flat dict whose
keys map 1:1 onto dataclass fields with JSON-native values.
Deserialization is strict — an unknown or missing key is rejected *by
name*, never silently dropped, so a report written by a newer (or
corrupted) producer fails loudly instead of round-tripping into a subtly
different object.  The schema and the report kind live only in the file
envelope of :func:`repro.harness.serialization.save_report`.

This module is dependency-free on purpose: the report classes live in
layers (``repro.serving``, ``repro.accel``) that must not import the
harness at module scope, so they import :func:`check_keys` lazily inside
their ``from_dict`` methods.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["check_keys"]


def check_keys(label: str, data: dict, known_keys: Sequence[str]) -> None:
    """Reject unknown and missing keys by name (strict round-trip)."""
    unknown = sorted(set(data) - set(known_keys))
    if unknown:
        raise ValueError(
            f"unknown keys in {label}: {', '.join(unknown)}"
        )
    missing = sorted(set(known_keys) - set(data))
    if missing:
        raise ValueError(
            f"missing keys in {label}: {', '.join(missing)}"
        )
