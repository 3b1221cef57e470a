"""The result of a verification suite: how many checks ran and which failed."""

from __future__ import annotations


class CheckReport:
    __slots__ = ("checked", "failures")

    def __init__(self, checked: int = 0, failures: list[str] | None = None):
        self.checked = checked
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {"checked": self.checked, "failures": list(self.failures)}
