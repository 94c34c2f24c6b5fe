"""scipy availability gate for the LP-strengthened optimality oracle.

scipy is the project's one optional dependency, so the import is
probed exactly once here, every LP entry point routes through
:func:`require_scipy`, and the rest of ``repro.opt`` keeps working
(falling back to the purely combinatorial pruning bounds) when scipy
is missing.
"""

from __future__ import annotations

from typing import Any

try:  # pragma: no cover - exercised implicitly on import
    import scipy.optimize  # noqa: F401

    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - container always ships scipy
    HAVE_SCIPY = False


class LPUnavailableError(RuntimeError):
    """An LP bound was requested but scipy is not importable."""


def require_scipy() -> Any:
    """Return ``scipy.optimize`` or raise :class:`LPUnavailableError`."""
    if not HAVE_SCIPY:
        raise LPUnavailableError(
            "the LP-strengthened bounds need scipy; install it "
            "(pip install 'repro[opt]') or run with lp='off'"
        )
    import scipy.optimize

    return scipy.optimize


def resolve_lp(lp: str) -> bool:
    """Resolve an ``{"on", "off", "auto"}`` switch to a concrete choice.

    ``auto`` enables LP pruning exactly when scipy is importable;
    ``on`` insists (raising :class:`LPUnavailableError` when it is
    missing) and ``off`` always uses the combinatorial bounds alone —
    the search result is bit-identical either way, only the pruning
    power changes.
    """
    if lp == "off":
        return False
    if lp == "on":
        require_scipy()
        return True
    if lp != "auto":
        raise ValueError(
            f"unknown lp mode {lp!r} (expected 'on', 'off', or 'auto')"
        )
    return HAVE_SCIPY
