"""Defenses the chaos layer proves out: retries, breakers, atomic writes.

Everything here is deliberately deterministic.  Backoff delays follow a
fixed exponential schedule (no jitter — reproducibility beats thundering
herds in a single-origin system), the circuit breaker trips on an exact
consecutive-failure count, and checkpoint integrity uses a content
checksum over the canonical JSON encoding.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import ReproError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry + backoff + timeout knobs for one task class.

    Attributes:
        max_retries: additional attempts after the first failure.
        backoff_base: seconds slept before retry 1.
        backoff_factor: multiplier applied per further retry.
        task_timeout: per-task wall-clock cap in seconds when tasks run
            on a worker pool (None = wait forever).  A timeout counts as
            a worker failure: the pool is replaced and work resumes
            serially, so one hung worker cannot stall a campaign.  The
            serial path caps an injected hang at the same bound.
    """

    max_retries: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    task_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ReproError("max_retries cannot be negative")
        if self.backoff_base < 0 or self.backoff_factor < 0:
            raise ReproError("backoff parameters cannot be negative")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ReproError("task timeout must be positive")

    def delay_for(self, retry: int) -> float:
        """Seconds to sleep before the ``retry``-th retry (0-based)."""
        return self.backoff_base * self.backoff_factor**retry

    def sleep_before(self, retry: int, sleeper: Callable[[float], None] = time.sleep) -> None:
        """Deterministic exponential backoff before the given retry."""
        delay = self.delay_for(retry)
        if delay > 0:
            sleeper(delay)


class CircuitBreaker:
    """Consecutive-failure counter that opens after a threshold.

    The engine records one failure per broken pool; once the breaker
    opens, parallel fan-out is abandoned for the rest of the engine's
    life and every simulation runs serially (the always-correct path).

    Args:
        threshold: consecutive failures that open the circuit.
    """

    def __init__(self, threshold: int = 2) -> None:
        if threshold < 1:
            raise ReproError("breaker threshold must be at least 1")
        self.threshold = threshold
        self.failures = 0
        self.trips = 0

    @property
    def open(self) -> bool:
        """Whether the protected path should be bypassed."""
        return self.failures >= self.threshold

    def record_failure(self) -> None:
        """Count one failure; may open the circuit."""
        self.failures += 1
        if self.failures == self.threshold:
            self.trips += 1

    def record_success(self) -> None:
        """Reset the consecutive-failure count (circuit stays closed)."""
        if self.failures < self.threshold:
            self.failures = 0


# ----------------------------------------------------------------------
# Atomic, checksummed file writes
# ----------------------------------------------------------------------


def atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically: tmp file, fsync, rename.

    An interrupt mid-write can no longer truncate an existing file at
    ``path`` — either the old content survives untouched or the new
    content is fully in place.  Returns ``path``.
    """
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return path


def content_checksum(text: str) -> str:
    """SHA-256 hex digest of a document body (checkpoint integrity)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
