"""Independent re-check of a `twistorsec verify` JSON report.

Nothing here imports twistorsec.  Gaussian rationals are read with
``fractions.Fraction``, dataclass reprs such as ``Sl2Element(a_e=QQi('0'), ...)``
with a small parser of their own, and JSON payloads are compared as parsed
structures.  A pass record whose two sides denote different values is
reported, so a scalar kernel whose ``==`` is wrong cannot pass silently.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_TOKEN = re.compile(r"""\s*(?:
    (?P<num>[+-]?\d+(?:/\d+)?(?:[+-]\d+(?:/\d+)?i)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | '(?P<quoted>[^']*)'
  | (?P<punct>[()\[\],=])
)""", re.VERBOSE)
_GAUSSIAN = re.compile(r"([+-]?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?)i)?")


def _gaussian(text: str):
    """``"a/b+c/di"`` as the pair of Fractions (re, im), or None."""
    m = _GAUSSIAN.fullmatch(text)
    if not m:
        return None
    return ("q", Fraction(m.group(1)), Fraction(m.group(2) or 0))


def _tokens(text: str):
    pos, out = 0, []
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"unexpected text at {pos}")
        out.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return out


class _Parser:
    """Values as rendered by the report: numbers, lists, tuples and reprs."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def _take(self, kind=None, value=None):
        tok = self._peek()
        if tok[0] is None or (kind and tok[0] != kind) or (value and tok[1] != value):
            raise ValueError(f"expected {value or kind}, got {tok[1]!r}")
        self.i += 1
        return tok[1]

    def parse(self):
        value = self._value()
        if self.i != len(self.toks):
            raise ValueError("trailing text")
        return value

    def _items(self, close):
        items = []
        while self._peek() != ("punct", close):
            items.append(self._arg())
            if self._peek() == ("punct", ","):
                self._take()
            elif self._peek() != ("punct", close):
                raise ValueError(f"expected ',' or {close!r}")
        self._take("punct", close)
        return tuple(items)

    def _arg(self):
        kind, text = self._peek()
        nxt = self.toks[self.i + 1] if self.i + 1 < len(self.toks) else None
        if kind == "ident" and nxt == ("punct", "="):
            self.i += 2
            return ("kw", text, self._value())
        return self._value()

    def _value(self):
        kind, text = self._peek()
        if kind == "num":
            self._take()
            return _gaussian(text)
        if kind == "quoted":
            self._take()
            return _gaussian(text) or ("str", text)
        if kind == "punct" and text in "([":
            self._take()
            return ("seq", self._items(")" if text == "(" else "]"))
        if kind == "ident":
            self._take()
            if self._peek() != ("punct", "("):
                return ("name", text)
            self._take()
            args = self._items(")")
            if text == "QQi" and len(args) == 1:
                return args[0]  # QQi('a+bi') denotes the number itself
            return ("call", text, args)
        raise ValueError(f"unexpected token {text!r}")


def parse_value(text: str):
    """A comparable form of one rendered value: JSON, a parsed repr, or the text."""
    try:
        if text.startswith("{"):
            return ("json", json.loads(text))
        return _Parser(text).parse()
    except (ValueError, ZeroDivisionError):  # not JSON, or not a number
        return ("text", text)


def same_value(expected: str, actual: str) -> bool:
    return parse_value(expected) == parse_value(actual)


def check_report(text: str, workload, seed: int):
    """Check one report against the workload that produced it.

    Returns ``(records, failed, problems)``: the records the report holds, the
    number marked ``fail``, and a list of what is wrong with the report.
    """
    problems = []
    try:
        doc = json.loads(text)
        records, summary, config = doc["records"], doc["summary"], doc["config"]
        if not (isinstance(records, list) and isinstance(config, dict)):
            raise TypeError("records must be a list and config an object")
    except (ValueError, KeyError, TypeError) as err:
        return 0, 0, [f"report does not parse: {err}"]
    want = {"seed": seed, "order": workload.order, "mode_bound": workload.mode_bound,
            "rank_bound": workload.rank_bound, "cases": workload.cases,
            "exact": True}
    for key, value in want.items():
        if config.get(key) != value:
            problems.append(f"config {key} is {config.get(key)!r}, expected {value!r}")
    ran = set(config.get("suites", ()))
    failed = sum(1 for r in records if isinstance(r, dict) and r.get("status") == "fail")
    if summary != {"total": len(records), "passed": len(records) - failed,
                   "failed": failed}:
        problems.append(f"summary {summary} does not match the {len(records)} "
                        f"records, {failed} failed")
    counts, seen = {}, set()
    for r in records:
        if not (isinstance(r, dict) and all(isinstance(r.get(field), str) for field in
                                            ("suite", "case", "status", "expected", "actual"))):
            problems.append(f"malformed record {str(r)[:80]}")
            continue
        key = (r["suite"], r["case"])
        if key in seen:
            problems.append(f"duplicate record {key}")
        seen.add(key)
        if r["suite"] not in ran:
            problems.append(f"record {key} from a suite the config does not name")
        counts[r["suite"]] = counts.get(r["suite"], 0) + 1
        status = r["status"]
        if status == "pass":
            if not same_value(r["expected"], r["actual"]):
                problems.append(f"record {key} passes but {r['expected'][:80]!r} "
                                f"!= {r['actual'][:80]!r}")
        elif status != "fail":
            problems.append(f"record {key} has status {status!r}")
    for suite, least in workload.min_records().items():
        if counts.get(suite, 0) < least:
            problems.append(f"suite {suite} has {counts.get(suite, 0)} records, "
                            f"expected at least {least}")
    return len(records), failed, problems
