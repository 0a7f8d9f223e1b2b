"""Structured pass/fail reports shared by the checking routines.

Reports render to deterministic text so that identical inputs (including
random seeds) produce byte-identical output files.
"""

from __future__ import annotations


class CheckItem:
    __slots__ = ("name", "ok", "kind", "detail")

    def __init__(self, name, ok, kind="exact", detail=""):
        self.name = name
        self.ok = bool(ok)
        self.kind = kind
        self.detail = detail

    def render(self):
        status = "pass" if self.ok else "FAIL"
        line = "%-8s %s [%s]" % (status, self.name, self.kind)
        if self.detail:
            line += " " + self.detail
        return line


class Report:
    def __init__(self, title, params=None):
        self.title = title
        self.params = dict(params or {})
        self.items = []

    def add(self, name, ok, kind="exact", detail=""):
        self.items.append(CheckItem(name, ok, kind, detail))

    def extend(self, other):
        self.items.extend(other.items)

    @property
    def all_ok(self):
        return all(item.ok for item in self.items)

    def render(self):
        lines = ["== %s ==" % self.title]
        lines += ["%s = %s" % (key, self.params[key]) for key in sorted(self.params)]
        lines += [item.render() for item in self.items]
        lines.append("result: %s (%d checks)" %
                     ("PASS" if self.all_ok else "FAIL", len(self.items)))
        return "\n".join(lines) + "\n"

    def __str__(self):
        return self.render()
