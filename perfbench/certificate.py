"""Check one verify run against the committed manifest of expected checks.

The manifest lists, per reference system, every check `verify --suite all`
must report as [condition, level, status, exact]; `level` and `exact` are
null where the report carries no such key. Residual values are not pinned:
they only have to be finite and within the tolerance the report states.
"""

from __future__ import annotations

import json
import math


def _key_and_value(check: dict) -> tuple:
    return (check.get("condition"), check.get("level")), (check.get("status"), check.get("exact"))


def check_report(expected: list, exit_code: int | None, report: bytes | None) -> list[str]:
    """One problem string per failed expected check; an empty list is a pass.

    Checks with the same condition and level are matched in report order. A
    missing check, a changed status or exactness, a residual that is not
    finite or exceeds its tolerance, and a check the manifest does not list
    each fail one check. A non-zero exit or an unreadable report fails them all.
    """
    if exit_code != 0:
        return [f"verify exited with {exit_code}"] * len(expected)
    try:
        checks = json.loads(report)["checks"]
    except (TypeError, ValueError, KeyError) as exc:
        return [f"unreadable report: {exc!r}"] * len(expected)

    reported = {}
    for check in checks:
        key, _ = _key_and_value(check)
        reported.setdefault(key, []).append(check)
    problems = []
    for condition, level, status, exact in expected:
        key = (condition, level)
        queue = reported.get(key)
        if not queue:
            problems.append(f"{condition} level={level}: missing")
            continue
        check = queue.pop(0)
        _, got = _key_and_value(check)
        if got != (status, exact):
            problems.append(f"{condition} level={level}: (status, exact) {got} != {(status, exact)}")
            continue
        if "residual" in check:
            residual, tolerance = check["residual"], check.get("tolerance")
            if not (isinstance(residual, (int, float)) and math.isfinite(residual)):
                problems.append(f"{condition} level={level}: residual {residual!r} is not finite")
            elif tolerance is None or residual > tolerance:
                problems.append(f"{condition} level={level}: residual {residual!r} over tolerance {tolerance!r}")
    for key, rest in reported.items():
        problems.extend(f"{key[0]} level={key[1]}: not in the manifest" for _ in rest)
    return problems[: len(expected)]
