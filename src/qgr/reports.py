"""Verification reports.

Suites report counterexamples as data rather than raising, so an
exhaustive run surfaces every failure at once; mapping to exit codes
is the command-line layer's job.  Failure lists are sorted before
emission so report content is independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerifyReport:
    suite: str
    k: int
    n: int
    checked: int
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    # lines for verify --stats, about how the suite ran; not part of the
    # report's JSON or of its equality
    stats: list = field(default_factory=list, compare=False)

    @property
    def ok(self):
        return not self.failures

    def to_json_dict(self):
        doc = {"suite": self.suite, "ctx": {"k": self.k, "n": self.n},
               "checked": self.checked, "failures": self.failures}
        doc.update(self.extra)
        return doc
