"""Every file the program reads or writes: the run configuration and the
block datasets it reads, checked whole, and the verify report, the two
dataset tables and the flat-demo document it writes.

Verify reports and the dataset tables are rendered to JSON or CSV by one
function, from rows in a fixed order and with sorted JSON keys, so that two
runs with the same configuration produce byte-identical files.  Values are
serialized as exact rational strings.
"""

from __future__ import annotations

import csv
import io
import json
import os
import reprlib
import tempfile
from collections import Counter

from .records import Record
from .scalars import QQi
from .vhs import VhsBlockData, energy_closed, hyperhol_degree

FORMATS = ("json", "csv")

#: The lowest value of each bounded integer config field; the lift suites
#: draw ranks 2..rank_bound (``suites._lift_rank``).
_LOWEST = {"order": 1, "mode_bound": 0, "rank_bound": 2, "cases": 0}


def check_seed(seed: int) -> int:
    """The seed, when it fits in an unsigned 64-bit integer (``random.Random``
    seeds with the absolute value, so a negative seed repeats a positive one)."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


class RunConfig(Record):
    """Everything a verification run depends on.  Seed fixed => output fixed."""

    __slots__ = _fields = ("suites", "seed", "order", "mode_bound", "rank_bound",
                           "datasets", "out_format", "out_path", "cases")

    def __init__(self, suites=(), seed: int = 0, order: int = 4, mode_bound: int = 2,
                 rank_bound: int = 3, datasets=(), out_format: str = "json",
                 out_path: str = None, cases: int = 25):
        given = dict(zip(self._fields, (suites, seed, order, mode_bound, rank_bound,
                                        datasets, out_format, out_path, cases)))
        for name in ("seed", *_LOWEST):
            if not isinstance(given[name], int) or isinstance(given[name], bool):
                raise ValueError(f"config field {name!r} must be an integer, "
                                 f"got {reprlib.repr(given[name])}")
        for name, value in (("suites", suites), ("datasets", datasets)):
            if (not isinstance(value, (list, tuple))
                    or not all(isinstance(x, str) for x in value)):
                raise ValueError(f"config field {name!r} must be a list of strings")
        repeated = [name for name, k in Counter(suites).items() if k > 1]
        if repeated:  # each suite's records would come twice under one case name
            raise ValueError(f"config field 'suites' repeats {reprlib.repr(repeated[0])}")
        if not isinstance(out_path, (str, type(None))):
            raise ValueError("config field 'out_path' must be a string or null")
        if len(datasets) > 1:
            raise ValueError("config field 'datasets' holds at most one path")
        check_seed(seed)
        if out_format not in FORMATS:
            raise ValueError(f"config field 'out_format' must be one of {FORMATS}")
        for name, lowest in _LOWEST.items():
            if given[name] < lowest:
                raise ValueError(f"config field {name!r} must be >= {lowest}")
        given.update(suites=tuple(suites), datasets=tuple(datasets))
        for name, value in given.items():
            object.__setattr__(self, name, value)

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

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
        extra = set(doc) - set(cls._fields)
        if extra:
            raise ValueError(f"unknown config fields: {reprlib.repr(sorted(extra))}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        return cls.from_json(read_json(path))


def verify_report(config: RunConfig, records) -> str:
    """The verify report of ``records`` in ``config.out_format``; its config
    block loads back through ``RunConfig.from_json``."""
    block = config.to_json()
    del block["out_path"]  # where the report lands must not change its bytes
    block["exact"] = True  # the arithmetic model; report checkers require it
    head = {"config": block, "summary": summary(records)}
    return render_report(config.out_format, RECORD_COLUMNS, records, "records", head)


def read_json(path: str):
    """The JSON document in a file; one nested too deeply to parse is an input error."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        message = f"{reprlib.repr(path)}: JSON nested too deeply to read"
        raise ValueError(message) from None


SHIPPED_DATASET = os.path.join(os.path.dirname(__file__), "data", "vhs_samples.json")


def load_vhs_dataset(path: str = None):
    """Entries of a dataset file; the shipped sample collection by default.

    Labels are unique, a non-empty pair names an entry of the same rank, and
    every energy and pair degree has few enough digits for a report to print.
    """
    doc = read_json(SHIPPED_DATASET if path is None else path)
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ValueError("malformed dataset: expected an object with an 'entries' list")
    entries = []
    for index, entry in enumerate(doc["entries"]):
        try:
            entries.append(VhsBlockData.from_json(entry))
        except ValueError as err:
            raise ValueError(f"malformed dataset entry {index}: {err}") from None
    labels = [e.label for e in entries]
    if len(set(labels)) != len(labels):
        raise ValueError("malformed dataset: duplicate labels")
    by_label = dict(zip(labels, entries))
    for e in entries:
        if e.pair and e.pair not in by_label:
            raise ValueError(f"dataset entry {reprlib.repr(e.label)}: pair "
                             f"{reprlib.repr(e.pair)} is not in the dataset")
        _check_printable(e, "energy", energy_closed(e))
        if e.pair:
            _check_printable(e, "pair degree", hyperhol_degree(e, by_label[e.pair]))
    return entries


def _check_printable(e, name: str, value):
    try:
        str(value)
    except ValueError:  # past Python's int-to-str digit limit
        raise ValueError(f"dataset entry {reprlib.repr(e.label)}: {name} has too "
                         f"many digits to print") from None


#: The keys of a verify record, in report order.  A record is a plain dict
#: with exactly these keys and string values, a row like those of the
#: dataset tables; its status is "pass" or "fail".
RECORD_COLUMNS = ("suite", "case", "status", "expected", "actual", "provenance")


_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def format_value(v) -> str:
    """Exact string form of a verification value: the ``to_json`` document
    as compact JSON where the value has one, else ``str``.  A ``QQi``, the
    most common value, is tested first: ``hasattr`` raises and catches an
    ``AttributeError`` inside for a value without ``to_json``."""
    if type(v) is QQi:
        return str(v)
    if hasattr(v, "to_json"):
        return _COMPACT.encode(v.to_json())
    return str(v)


def check(case: str, expected, actual, provenance: str) -> dict:
    """Build a record whose status reflects equality of the two sides.

    The suite is left empty: ``run_suites`` files the record under the suite
    that returned it.
    """
    return {"suite": "", "case": case,
            "status": "pass" if expected == actual else "fail",
            "expected": format_value(expected), "actual": format_value(actual),
            "provenance": provenance}


def check_true(case: str, condition: bool, detail: str, provenance: str) -> dict:
    """Record for a boolean property; the detail string names the claim."""
    return {"suite": "", "case": case, "status": "pass" if condition else "fail",
            "expected": detail, "actual": detail if condition else f"not ({detail})",
            "provenance": provenance}


def summary(records) -> dict:
    passed = sum(1 for r in records if r["status"] == "pass")
    return {"total": len(records), "passed": passed,
            "failed": len(records) - passed}


def failing_suites(records):
    return sorted({r["suite"] for r in records if r["status"] != "pass"})


def json_text(doc) -> str:
    """The JSON form of every document the program writes.

    ``json.dump`` writes each piece as it is made; ``json.dumps`` would hold
    all of them in one list before joining, several times the text's size.
    """
    buf = io.StringIO()
    json.dump(doc, buf, sort_keys=True, indent=2, ensure_ascii=False)
    buf.write("\n")
    return buf.getvalue()


def csv_text(columns, rows) -> str:
    """The CSV form of every table the program writes: a header, then the rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


# One row of a JSON report as ``json_text`` lays it out at depth two, less its
# braces: the C encoder writes it, the item separator carrying the indent.
_ROW = json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                        separators=(",\n      ", ": "))


def render_report(out_format: str, columns, rows, key: str, head=None) -> str:
    """Rows (dicts with at least the ``columns`` as keys), in the order given.

    CSV for ``"csv"``, JSON otherwise: the CLI and ``RunConfig`` accept only
    the ``FORMATS``.  The CSV holds the columns only; the JSON holds the
    fields of ``head`` and the whole rows under ``key``, the same text as
    ``json_text`` of that document.  Row values are strings and numbers, as
    ``check``, ``check_true`` and the dataset tables make them.
    """
    if out_format == "csv":
        return csv_text(columns, ([row[c] for c in columns] for row in rows))
    text = json_text({**(head or {}), key: []})
    if not rows:
        return text
    # The head's text with the rows' list empty: cut it at that list, which
    # is the only item at depth one whose line reads so.
    name = json.dumps(key, ensure_ascii=False)
    before, _, after = text.partition(f"\n  {name}: []")
    pieces = [before, f"\n  {name}: [\n    {{\n      "]
    for row in rows:
        pieces += (_ROW.encode(row)[1:-1], "\n    },\n    {\n      ")
    pieces[-1] = "\n    }\n  ]"
    pieces.append(after)
    return "".join(pieces)


TABLE_COLUMNS = ("label", "n", "l", "energy", "pair", "hyperhol_degree")
_DEGREE_COLUMNS = ("label", "pair", "hyperhol_degree")


def vhs_energy_table(entries):
    """Rows (label, n, l, energy, paired label, hyperholomorphic degree).

    The pair and degree cells stay empty for entries without a declared
    partner on the other side of the parameter line.
    """
    by_label = {e.label: e for e in entries}
    rows = []
    for e in entries:
        row = {"label": e.label, "n": e.n, "l": e.l,
               "energy": format_value(energy_closed(e)),
               "pair": e.pair or "", "hyperhol_degree": ""}
        if e.pair:
            row["hyperhol_degree"] = format_value(hyperhol_degree(e, by_label[e.pair]))
        rows.append(row)
    return rows


def vhs_energy_report(out_format: str, entries) -> str:
    """The vhs-energy table: a row of ``vhs_energy_table`` per entry."""
    return render_report(out_format, TABLE_COLUMNS, vhs_energy_table(entries), "rows")


def hyperhol_degree_report(out_format: str, entries) -> str:
    """The hyperhol-degree table: the paired rows, cut to label, pair and degree."""
    rows = [{c: r[c] for c in _DEGREE_COLUMNS} for r in vhs_energy_table(entries)
            if r["pair"]]
    return render_report(out_format, _DEGREE_COLUMNS, rows, "rows")


def flat_demo_report(out_format: str, doc: dict) -> str:
    """The flat-demo document; as CSV, a key/value table, not render_report's:
    the demo is one nested document, not a list of rows with fixed columns."""
    if out_format == "csv":
        return csv_text(("key", "value"), ([key, json.dumps(doc[key], sort_keys=True)]
                                           for key in sorted(doc)))
    return json_text(doc)


def atomic_write(path: str, text: str):
    """Write the file completely or not at all (temp file plus rename).  An
    OSError names ``path``: the temp file's name is random."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".report-", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as err:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(err, OSError):
            raise OSError(err.errno, err.strerror, path) from err
        raise
