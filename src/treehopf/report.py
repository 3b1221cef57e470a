"""The result of a verification suite: how many checks ran and which failed."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {"checked": self.checked, "failures": list(self.failures)}
