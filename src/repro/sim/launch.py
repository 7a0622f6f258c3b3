"""Launch-dimension helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union


@dataclass(frozen=True)
class Dim3:
    """A CUDA-style 3-component dimension."""

    x: int = 1
    y: int = 1
    z: int = 1

    @property
    def count(self) -> int:
        return self.x * self.y * self.z

    @classmethod
    def of(cls, value: Union[int, Tuple[int, ...], "Dim3"]) -> "Dim3":
        if isinstance(value, Dim3):
            return value
        if isinstance(value, int):
            return cls(value)
        return cls(*value)
