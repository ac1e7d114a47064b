"""Run configuration, verification records, and deterministic report output.

Reports are rendered to JSON or CSV with fully sorted, stable content so that
two runs with the same configuration produce byte-identical files.  Wall-clock
timings are kept on the records for diagnostics but never serialized, since
they would break that guarantee.  Values are serialized as exact rational
strings.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import QQi

FORMATS = ("json", "csv")


@dataclass(frozen=True)
class RunConfig:
    """Everything a verification run depends on.  Seed fixed => output fixed."""

    suites: tuple = ()
    seed: int = 0
    order: int = 4
    mode_bound: int = 2
    rank_bound: int = 3
    datasets: tuple = ()
    out_format: str = "json"
    out_path: str = None
    cases: int = 25

    def __post_init__(self):
        for name in ("seed", "order", "mode_bound", "rank_bound", "cases"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"config field {name!r} must be an integer, "
                                 f"got {value!r}")
        for name in ("suites", "datasets"):
            value = getattr(self, name)
            if (not isinstance(value, (list, tuple))
                    or not all(isinstance(x, str) for x in value)):
                raise ValueError(f"config field {name!r} must be a list of strings")
        if not isinstance(self.out_path, (str, type(None))):
            raise ValueError("config field 'out_path' must be a string or null")
        if len(self.datasets) > 1:
            raise ValueError("config field 'datasets' holds at most one path")
        object.__setattr__(self, "suites", tuple(self.suites))
        object.__setattr__(self, "datasets", tuple(self.datasets))
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.out_format not in FORMATS:
            raise ValueError(f"config field 'out_format' must be one of {FORMATS}")
        if self.order < 1:
            raise ValueError("config field 'order' must be >= 1")
        if self.mode_bound < 0:
            raise ValueError("config field 'mode_bound' must be >= 0")
        if self.rank_bound < 2:  # the lift suites draw ranks 2..rank_bound
            raise ValueError("config field 'rank_bound' must be >= 2")
        if self.cases < 0:
            raise ValueError("config field 'cases' must be >= 0")

    def to_json(self) -> dict:
        return {"suites": list(self.suites), "seed": self.seed,
                "order": self.order, "mode_bound": self.mode_bound,
                "rank_bound": self.rank_bound, "datasets": list(self.datasets),
                "out_format": self.out_format, "out_path": self.out_path,
                "cases": self.cases}

    @classmethod
    def from_json(cls, doc: dict) -> "RunConfig":
        """Config from a JSON object.

        ``"exact": true`` is accepted, so that the config block of a report
        loads back: arithmetic is always exact, and any other value of
        ``exact`` is rejected.
        """
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        doc = dict(doc)
        if doc.pop("exact", True) is not True:
            raise ValueError("config field 'exact' only accepts true: "
                             "arithmetic is always exact")
        extra = set(doc) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


@dataclass
class ReportRecord:
    """One verified identity: both sides as strings plus the outcome."""

    suite: str
    case: str
    status: str
    expected: str
    actual: str
    provenance: str
    wall_time: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if self.status not in ("pass", "fail"):
            raise ValueError("status must be pass or fail")

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def format_value(v) -> str:
    """Exact string form of a verification value."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (QQi, int, Fraction, str)):
        return str(v)
    if isinstance(v, (tuple, list)):
        return "[" + ", ".join(format_value(x) for x in v) + "]"
    if hasattr(v, "to_json"):
        return json.dumps(v.to_json(), sort_keys=True, separators=(",", ":"))
    return str(v)


def check(suite: str, case: str, expected, actual, provenance: str) -> ReportRecord:
    """Build a record whose status reflects equality of the two sides."""
    ok = expected == actual
    return ReportRecord(suite, case, "pass" if ok else "fail",
                        format_value(expected), format_value(actual), provenance)


def check_true(suite: str, case: str, condition: bool, detail: str,
               provenance: str) -> ReportRecord:
    """Record for a boolean property; the detail string names the claim."""
    return ReportRecord(suite, case, "pass" if condition else "fail",
                        detail, detail if condition else f"not ({detail})",
                        provenance)


def sort_records(records):
    return sorted(records, key=lambda r: (r.suite, r.case))


def summary(records) -> dict:
    passed = sum(1 for r in records if r.passed)
    return {"total": len(records), "passed": passed,
            "failed": len(records) - passed}


def failing_suites(records):
    return sorted({r.suite for r in records if not r.passed})


def render_json(config: RunConfig, records) -> str:
    config_doc = config.to_json()
    del config_doc["out_path"]  # where the report lands must not change its bytes
    config_doc["exact"] = True  # the arithmetic model; report checkers require it
    doc = {
        "config": config_doc,
        "summary": summary(records),
        "records": [{"suite": r.suite, "case": r.case, "status": r.status,
                     "expected": r.expected, "actual": r.actual,
                     "provenance": r.provenance}
                    for r in sort_records(records)],
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


_CSV_COLUMNS = ("suite", "case", "status", "expected", "actual", "provenance")


def render_csv(config: RunConfig, records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in sort_records(records):
        writer.writerow([r.suite, r.case, r.status, r.expected, r.actual,
                         r.provenance])
    return buf.getvalue()


def render_report(config: RunConfig, records, out_format: str = None) -> str:
    fmt = out_format or config.out_format
    if fmt == "json":
        return render_json(config, records)
    if fmt == "csv":
        return render_csv(config, records)
    raise ValueError(f"unknown report format: {fmt}")


def records_from_json(text: str):
    doc = json.loads(text)
    return [ReportRecord(r["suite"], r["case"], r["status"], r["expected"],
                         r["actual"], r["provenance"])
            for r in doc["records"]]


def records_from_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != _CSV_COLUMNS:
        raise ValueError("malformed CSV report header")
    return [ReportRecord(*row) for row in rows[1:]]


def load_records(text: str, out_format: str):
    if out_format == "json":
        return records_from_json(text)
    if out_format == "csv":
        return records_from_csv(text)
    raise ValueError(f"unknown report format: {out_format}")


def atomic_write(path: str, text: str):
    """Write the file completely or not at all (temp file plus rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
