"""Shared CLI override grammar: scalars, ``key=value`` pairs, sweep axes.

The ``sweep`` and ``campaign`` subcommands historically carried two
near-identical hand parsers for their override flags (``--param
PATH=V1,V2,...`` and ``--set KEY=VALUE``) with subtly different error
text and exit behavior.  This module is the single grammar both now
share, and ``--fault`` and ``--check`` share its ``kind:key=value,...``
form:

* :func:`parse_scalar` — one value literal: int, then finite float, then
  bool, then bare string;
* :func:`parse_assignment` / :func:`parse_assignments` — ``key=value``
  pairs from a repeatable flag;
* :func:`parse_kind_params` — ``kind`` or ``kind:key=value,...``;
* :func:`parse_axis` / :func:`parse_axes` — ``path=v1,v2,...`` sweep
  axes from a repeatable flag.

Every parse failure raises :class:`~repro.errors.ExperimentError`, which
the CLI's ``main()`` reports as ``error: ...`` with exit status 2 — a
usage error reads the same no matter which flag produced it.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.errors import ExperimentError

__all__ = [
    "parse_scalar",
    "parse_assignment",
    "parse_assignments",
    "parse_kind_params",
    "parse_axis",
    "parse_axes",
]


def parse_scalar(token: str) -> Any:
    """CLI value literal: int, then float, then bool, then bare string.

    A float literal must be finite: ``nan``, ``inf`` and literals that
    overflow to infinity (``1e999``) raise, because no spec parameter
    takes them and they would otherwise fail deep inside a run.
    """
    try:
        return int(token)
    except ValueError:
        pass
    try:
        number = float(token)
    except ValueError:
        pass
    else:
        if not math.isfinite(number):
            raise ExperimentError(
                f"non-finite number {token!r} is not a valid value"
            )
        return number
    if token.lower() in ("true", "false"):
        return token.lower() == "true"
    return token


def parse_assignment(
    item: str, *, flag: str = "--set", require_value: bool = False
) -> tuple[str, Any]:
    """One ``key=value`` pair; ``require_value`` rejects ``key=``."""
    key, sep, value = item.partition("=")
    if not sep or not key or (require_value and not value):
        raise ExperimentError(
            f"{flag} needs key=value syntax, got {item!r}"
        )
    return key, parse_scalar(value)


def parse_assignments(
    items: Iterable[str] | None,
    *,
    flag: str = "--set",
    require_value: bool = False,
) -> dict[str, Any]:
    """Fold a repeatable ``key=value`` flag into a dict (later wins)."""
    params: dict[str, Any] = {}
    for item in items or []:
        key, value = parse_assignment(
            item, flag=flag, require_value=require_value
        )
        params[key] = value
    return params


def parse_kind_params(text: str, *, flag: str) -> tuple[str, dict[str, Any]]:
    """``kind`` or ``kind:key=value,...`` → ``(kind, params)``; no value
    may be empty."""
    kind, _, rest = text.partition(":")
    items = rest.split(",") if rest else None
    return kind, parse_assignments(items, flag=flag, require_value=True)


def parse_axis(
    item: str, *, flag: str = "--param"
) -> tuple[str, list[Any]]:
    """One ``path=v1,v2,...`` sweep axis (values parsed as scalars)."""
    path, sep, raw_values = item.partition("=")
    if not sep or not path or not raw_values:
        raise ExperimentError(
            f"{flag} needs path=v1,v2,... syntax, got {item!r}"
        )
    return path, [parse_scalar(token) for token in raw_values.split(",")]


def parse_axes(
    items: Iterable[str] | None, *, flag: str = "--param"
) -> dict[str, list[Any]]:
    """Fold a repeatable axis flag into ``{path: [values]}`` (later wins)."""
    axes: dict[str, list[Any]] = {}
    for item in items or []:
        path, values = parse_axis(item, flag=flag)
        axes[path] = values
    return axes
