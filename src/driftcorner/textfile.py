"""The text-file convention of the track, pre-trajectory and preview files.

A file starts with its version line, `# driftcorner <kind> v<N>`, and
holds `# key = value` lines; a format with rows adds a column comment
and rows of whitespace-separated numbers.  A file of an older version of
the same kind is refused with the command that re-creates it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, NamedTuple

from .errors import BadInputFile, BadTrackSpec


class Format(NamedTuple):
    kind: str  # the word of the version line
    version: int
    keys: tuple[str, ...]  # the `# key = value` lines every file holds
    recreate: str  # the command that re-creates a file of an older version
    columns: str | None = None  # the comment over the rows; None: no rows

    @property
    def header(self) -> str:
        return f"# driftcorner {self.kind} v{self.version}"


def write(path, fmt: Format, fields: dict, rows=()) -> None:
    """Write the version line, `# key = value` for `fields` in their
    order and, for a format with rows, the column comment and `rows` of
    `repr` cells."""
    lines = [fmt.header, *(f"# {key} = {value}" for key, value in fields.items())]
    if fmt.columns is not None:
        lines += [f"# {fmt.columns}", *(" ".join(map(repr, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def read(path, fmt: Format, build: Callable[[dict, list], object]):
    """`build(fields, rows)` of the file at `path`: its `# key = value`
    values as strings and its rows as lists of floats.  A malformed file,
    one that repeats a key among them, and a ValueError or BadTrackSpec
    from `build`, are refused with a BadInputFile that names the file."""
    try:
        first, *lines = [line.strip() for line in Path(path).read_text().splitlines()] or [""]
        if first != fmt.header:
            kind, _, version = first.rpartition(" v")
            if kind == f"# driftcorner {fmt.kind}" and version in map(str, range(1, fmt.version)):
                raise ValueError(f"a version {version} {fmt.kind} file, which this version "
                                 f"no longer reads; re-create it with `{fmt.recreate}`")
            raise ValueError(f"unrecognized {fmt.kind} file header {first!r}")
        fields, rows = {}, []
        for line in filter(None, lines):
            if line.startswith("#"):
                key, eq, value = line.lstrip("# ").partition(" = ")
                if eq:
                    if key in fields:
                        raise ValueError(f"a second {key} header line")
                    fields[key] = value
            elif fmt.columns is None:
                raise ValueError(f"unexpected line {line!r}; a {fmt.kind} file has no rows")
            else:
                rows.append([float(cell) for cell in line.split()])
        missing = [key for key in fmt.keys if key not in fields]
        if missing:
            raise ValueError(f"no {', '.join(missing)} header line")
        return build(fields, rows)
    except (ValueError, BadTrackSpec) as exc:
        raise BadInputFile(f"{path}: {exc}") from None
