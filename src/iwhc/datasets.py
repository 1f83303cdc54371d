"""Bundled example datasets and the plain-text data file format.

Data files hold whitespace- or newline-separated positive reals; lines whose
first nonblank character is ``#`` are comments.  The two bundled sets are the
classic flood-level and guinea-pig survival data used throughout the tests.
"""

from __future__ import annotations

import functools
import importlib.resources
from pathlib import Path

import numpy as np

from .errors import DomainError

__all__ = ["BUNDLED", "load_bundled", "parse_data_file", "resolve"]

BUNDLED = ("flood", "guinea")


def _parse_text(text: str, origin: str) -> np.ndarray:
    values = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        for token in stripped.split():
            try:
                values.append(float(token))
            except ValueError as exc:
                raise DomainError(f"{origin}: not a number: {token!r}") from exc
    if not values:
        raise DomainError(f"{origin}: no data values found")
    arr = np.array(values, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise DomainError(f"{origin}: all values must be positive and finite")
    return arr


def load_bundled(name: str) -> np.ndarray:
    """A bundled dataset, as a new array on every call."""
    if name not in BUNDLED:
        raise DomainError(f"unknown bundled dataset {name!r}; available: {BUNDLED}")
    return _parsed_bundled(name).copy()


@functools.cache
def _parsed_bundled(name: str) -> np.ndarray:
    """The packaged file of ``name``, read and parsed once per process."""
    text = importlib.resources.files("iwhc").joinpath(f"data/{name}.txt").read_text()
    return _parse_text(text, origin=name)


def parse_data_file(path) -> np.ndarray:
    return _parse_text(Path(path).read_text(), origin=str(path))


def resolve(name_or_path: str) -> np.ndarray:
    """Bundled dataset name, or a path to a data file."""
    if name_or_path in BUNDLED:
        return load_bundled(name_or_path)
    return parse_data_file(name_or_path)
