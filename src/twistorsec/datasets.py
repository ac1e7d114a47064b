"""Loading block datasets and building the energy/degree table."""

from __future__ import annotations

import os
import reprlib

from .report import format_value, read_json
from .vhs import VhsBlockData, energy_closed, hyperhol_degree

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
        if e.pair and by_label[e.pair].n != e.n:
            raise ValueError(f"dataset entries {reprlib.repr(e.label)} and "
                             f"{reprlib.repr(e.pair)} must share the same rank")
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


TABLE_COLUMNS = ("label", "n", "l", "energy", "pair", "hyperhol_degree")


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
