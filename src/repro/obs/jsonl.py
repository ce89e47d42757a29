"""The one JSONL codec: writers and the skip-and-count reader.

Every JSONL file the package writes or reads — run traces
(``*.trace.jsonl``), progress and fabric span logs,
crash-ring flushes and arrival-rate replay files — goes through this
module. A format only supplies its record's ``*_to_dict`` /
``*_from_dict`` pair; the bytes, the line handling and the damage
contract live here once.

On disk a file is one ``json.dumps(record, sort_keys=True)`` object per
``\\n``-terminated line. :func:`write_jsonl` writes a whole file in one
go; :class:`JsonlWriter` streams a live log, flushed per line so it can
be tailed and survives a kill up to the last complete line.

:func:`read_jsonl` reads bytes and decodes each line on its own, so a
damaged line can never hide the lines around it. A line is damaged when
it is not valid UTF-8, not valid JSON, not a JSON object, or rejected by
the format's ``decode`` with :class:`~repro.errors.ConfigurationError`.
Blank lines are skipped and never count as damage. In strict mode the
first damaged line raises ``ConfigurationError("<path>:<line>:
<reason>")``; in salvage mode it is skipped and recorded as a
:class:`JsonlDamage` with the byte offset of the line's start.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import IO, Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ConfigurationError

PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class JsonlDamage:
    """One unreadable line of a JSONL file.

    ``byte_offset`` is where the line starts; for the first damage of a
    file whose writer was killed mid-line, truncating the file there
    leaves a fully valid JSONL file.
    """

    line_number: int
    byte_offset: int
    reason: str

    def __str__(self) -> str:
        return (
            f"line {self.line_number} (byte offset {self.byte_offset}): "
            f"{self.reason}"
        )


def _parse_object(raw: bytes) -> Dict[str, Any]:
    """The JSON object in ``raw``; raises ``ConfigurationError(reason)``."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError("not valid UTF-8") from exc
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError("not valid JSON") from exc
    if not isinstance(value, dict):
        raise ConfigurationError("not a JSON object")
    return value


def _line(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def write_jsonl(
    path: PathLike, dicts: Iterable[Dict[str, Any]]
) -> pathlib.Path:
    """Write ``dicts`` to ``path`` (replacing it), one per line; returns it."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as stream:
        for record in dicts:
            stream.write(_line(record))
    return path


class JsonlWriter:
    """A live JSONL log: opened on the first record, flushed per line.

    ``append=False`` truncates an existing file when the first record
    arrives, ``append=True`` adds to it. The parent directory is
    created then too, so a writer that never writes leaves no trace.
    After :meth:`close` the next record opens the file again. Not
    thread-safe: callers that write from several threads hold a lock.
    """

    def __init__(self, path: PathLike, *, append: bool):
        self.path = pathlib.Path(path)
        self._mode = "a" if append else "w"
        self._stream: Optional[IO[str]] = None

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record and flush it to the file."""
        if self._stream is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = self.path.open(self._mode, encoding="utf-8")
        self._stream.write(_line(record))
        self._stream.flush()

    def close(self) -> None:
        """Close the file (a no-op when nothing was written)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None


def read_jsonl(
    path: PathLike,
    decode: Optional[Callable[[Dict[str, Any]], Any]] = None,
    *,
    strict: bool = True,
) -> Tuple[List[Any], List[JsonlDamage]]:
    """Read a JSONL file; returns ``(records, damage)``.

    ``decode`` turns each JSON object into a record and raises
    :class:`~repro.errors.ConfigurationError` on a malformed one; without
    it the records are the objects themselves. ``strict=True`` raises
    ``ConfigurationError("<path>:<line>: <reason>")`` on the first
    damaged line (``damage`` is then always empty); ``strict=False``
    skips every damaged line and lists it in ``damage``, in file order.
    """
    records: List[Any] = []
    damage: List[JsonlDamage] = []
    byte_offset = 0
    with pathlib.Path(path).open("rb") as stream:
        for line_number, raw in enumerate(stream, start=1):
            start, byte_offset = byte_offset, byte_offset + len(raw)
            if not raw.strip():
                continue
            try:
                value = _parse_object(raw)
                records.append(value if decode is None else decode(value))
            except ConfigurationError as exc:
                if strict:
                    raise ConfigurationError(
                        f"{path}:{line_number}: {exc}"
                    ) from exc
                damage.append(JsonlDamage(line_number, start, str(exc)))
    return records, damage


def read_json_object(path: PathLike) -> Dict[str, Any]:
    """Load a whole-file JSON object (a result, manifest or saved config).

    Raises :class:`~repro.errors.ConfigurationError` naming ``path`` when
    the file is not valid UTF-8, not valid JSON or not a JSON object.
    """
    try:
        return _parse_object(pathlib.Path(path).read_bytes())
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
