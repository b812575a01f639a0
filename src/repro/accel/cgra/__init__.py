"""Statically-mapped heterogeneous CGRA fabric, timed by its resource bound."""

from .backend import CgraBackend

__all__ = ["CgraBackend"]
