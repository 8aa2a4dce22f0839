"""The one reader and writer of the track, pre-trajectory and preview files."""

import pytest

from driftcorner import cli
from driftcorner.errors import BadInputFile
from driftcorner.fusion import PREVIEW_FILE, load_preview, save_preview
from driftcorner.planner import PRETRAJ_FILE, load_pretrajectory, save_pretrajectory
from driftcorner.track import TRACK_FILE, load_track, save_track

# kind: (format, fixture of a saved object, save, load on the U-turn, start
#        of a line whose first cell is a number, command that reads {path})
FORMATS = {
    "track": (TRACK_FILE, "uturn", save_track, lambda path, track: load_track(path),
              "# segments = ", ["plan", "--track", "{path}"]),
    "pretrajectory": (PRETRAJ_FILE, "uturn_pretraj", save_pretrajectory,
                      load_pretrajectory, "# values = ",
                      ["deploy", "--kind", "uturn", "--pretraj", "{path}",
                       "--preview", "{path}.preview"]),
    "preview": (PREVIEW_FILE, "uturn_preview8", save_preview,
                lambda path, track: load_preview(path), "0.0 ",
                ["deploy", "--kind", "uturn", "--preview", "{path}"]),
}


def _version(step):
    """An edit that moves the version line `step` versions on."""
    return lambda text, fmt, _: text.replace(
        fmt.header, fmt._replace(version=fmt.version + step).header)


def _first_cell_not_a_number(text, fmt, start):
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith(start))
    lines[k] = start + "fast" + lines[k][len(start):].lstrip("-0123456789.")
    return "\n".join(lines) + "\n"


def _first_key_repeated(text, fmt, _):
    """A `# key = value` line for the first key, with another value,
    above the real one."""
    return text.replace(f"# {fmt.keys[0]} = ", f"# {fmt.keys[0]} = 1.0\n# {fmt.keys[0]} = ", 1)


# fault: (edit(text, format, start of the number line), words of the refusal,
#         kinds it applies to)
FAULTS = {
    "unknown_version": (_version(+1), "unrecognized", FORMATS),
    "retired_version": (_version(-1), "re-create it with", FORMATS),
    "stray_row": (lambda text, fmt, _: text + "0.0 0.0\n", "has no rows",
                  ("track", "pretrajectory")),
    "missing_key": (lambda text, fmt, _: "".join(
        ln for ln in text.splitlines(True) if not ln.startswith(f"# {fmt.keys[-1]} = ")),
                    "header line", FORMATS),
    "not_a_number": (_first_cell_not_a_number, "could not convert", FORMATS),
    "repeated_key": (_first_key_repeated, "a second {key} header line", FORMATS),
}


@pytest.mark.parametrize("kind, fault", [(kind, fault) for fault, (*_, kinds) in FAULTS.items()
                                         for kind in kinds])
def test_a_broken_file_is_refused_naming_it(kind, fault, request, uturn, tmp_path, capsys):
    fmt, fixture, save, load, number_line, argv = FORMATS[kind]
    edit, words, _ = FAULTS[fault]
    path = tmp_path / f"{kind}.txt"
    save(request.getfixturevalue(fixture), path)
    text = path.read_text()
    path.write_text(edit(text, fmt, number_line))
    assert path.read_text() != text
    with pytest.raises(BadInputFile, match=words.format(key=fmt.keys[0])) as exc:
        load(path, uturn)
    assert str(exc.value).startswith(f"{path}: ")
    out = tmp_path / "out"
    assert cli.main([arg.format(path=path) for arg in argv] + ["--out", str(out)]) == 3
    assert f"{path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", FORMATS)
def test_a_missing_file_is_refused_naming_it(kind, tmp_path, capsys):
    path, out = tmp_path / f"{kind}.txt", tmp_path / "out"
    argv = [arg.format(path=path) for arg in FORMATS[kind][-1]]
    assert cli.main(argv + ["--out", str(out)]) == 3
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", FORMATS)
def test_save_load_save_is_byte_identical(kind, request, uturn, tmp_path):
    _, fixture, save, load, _, _ = FORMATS[kind]
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save(request.getfixturevalue(fixture), first)
    save(load(first, uturn), second)
    assert second.read_bytes() == first.read_bytes()
