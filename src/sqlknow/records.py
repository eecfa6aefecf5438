"""One typed JSON codec for every stored record, and the atomic file writer.

:func:`to_json` and :func:`from_json` walk a dataclass's fields and type hints
(dataclasses, Enums stored as their value, ``tuple``, ``list``, ``dict[str, X]``,
``X | None`` and scalars) through an encoder and a decoder built once per type.
Decoding is strict: a float field also takes an int, an int, str or bool field
only that JSON type; an array of scalars is checked in one pass over its element
types. A missing key takes the field's default and an unknown key
is ignored. Anything else, or a ``ValueError`` from the record's own checks,
raises :class:`~sqlknow.errors.InvariantViolation` naming the JSON path, e.g.
``terms[3].confidence: expected a number, got "high"``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import types
import typing
import uuid
from contextlib import contextmanager
from enum import Enum
from functools import cache
from operator import attrgetter
from pathlib import Path

from .errors import InvariantViolation

_SCALARS = {str: "a string", int: "an integer", bool: "true or false", float: "a number"}


class _Mismatch(InvariantViolation):
    """A JSON value that does not fit its type. Each container the error passes
    on its way out adds its step (``.field``, ``[index]``, ``["key"]``)."""

    def __init__(self, reason: str, *path: str):
        super().__init__(reason)
        self.path = list(path)

    def __str__(self) -> str:
        where = "".join(reversed(self.path)).lstrip(".")
        return f"{where}: {self.args[0]}" if where else self.args[0]


def _expected(what: str, value) -> _Mismatch:
    shown = json.dumps(value, ensure_ascii=False, default=repr)
    return _Mismatch(f"expected {what}, got {shown if len(shown) <= 60 else shown[:57] + '...'}")


def to_json(obj):
    """``obj``, a record (dataclass) instance, as JSON-ready dicts, lists and scalars."""
    return _codec(type(obj))[0](obj)


def from_json(cls, data):
    """JSON-loaded ``data`` decoded as ``cls``, a record type or e.g. ``list[SqlTemplate]``;
    raises InvariantViolation naming the JSON path of what does not fit."""
    return _codec(cls)[1](data)


def read_json(path: str | Path, cls):
    """The JSON file at ``path`` decoded as ``cls``; the error of a file that is
    not JSON or does not fit names the file."""
    try:
        return _codec(cls)[1](json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InvariantViolation(f"{path}: not JSON: {exc}") from None
    except _Mismatch as exc:
        raise InvariantViolation(f"{path}: {exc}") from None


def read_jsonl(path: str | Path) -> list:
    """The JSON value on each non-blank line of the file at ``path``."""
    return [row for _, row in numbered_jsonl(Path(path).read_bytes(), path)]


def utf8_lines(data: bytes, path: str | Path) -> list[str]:
    """The lines of ``data``, the contents of the file at ``path``, split at
    ``\n`` only (one trailing ``\r`` is stripped), so a raw U+2028 or U+0085
    inside a JSON string stays in its row; a byte that is not UTF-8 raises
    InvariantViolation naming the file and the line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        number = data.count(b"\n", 0, exc.start) + 1
        raise InvariantViolation(f"{path} line {number}: not UTF-8: {exc}") from None
    return [line.removesuffix("\r") for line in text.split("\n")]


def numbered_jsonl(data: bytes, path: str | Path) -> list[tuple[int, object]]:
    """(1-based line number, JSON value) of each non-blank line of ``data``, the
    contents of the file at ``path``, which a line that is not UTF-8 or not JSON
    names."""
    rows = []
    for number, line in enumerate(utf8_lines(data, path), 1):
        if not line.strip():
            continue
        try:
            rows.append((number, json.loads(line)))
        except ValueError as exc:
            raise InvariantViolation(f"{path} line {number}: not JSON: {exc}") from None
    return rows


def _at(decode, value, step: str):
    try:
        return decode(value)
    except _Mismatch as exc:
        exc.path.append(step)
        raise


@cache
def _codec(tp):
    """The ``(encode, decode)`` pair of type ``tp``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _SCALARS:

        def decode_scalar(v):
            if type(v) is tp:  # so an int field rejects true, and a bool field 1
                return v
            if tp is float and type(v) is int:
                return float(v)
            raise _expected(_SCALARS[tp], v)

        return (lambda v: v), decode_scalar
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        enc, dec = _codec(args[args[0] is type(None)])
        return (lambda v: None if v is None else enc(v)), (lambda v: None if v is None else dec(v))
    if origin is list or (origin is tuple and args[1:] == (...,)):
        enc, dec = _codec(args[0])
        fits = {float: {float, int}}.get(args[0], {args[0]})  # for scalars: an int widens

        def decode_each(v):
            if type(v) is not list:
                raise _expected("an array", v)
            if args[0] in _SCALARS and (types := set(map(type, v))) <= fits:  # one C pass
                return origin(map(float, v) if args[0] is float and int in types else v)
            try:
                return origin(map(dec, v))
            except _Mismatch:  # decode again one by one to name the failing index
                return origin(_at(dec, x, f"[{i}]") for i, x in enumerate(v))

        return (list if args[0] in _SCALARS else lambda v: [enc(x) for x in v]), decode_each
    if origin is tuple:
        codecs = [_codec(a) for a in args]

        def decode_fixed(v):
            if type(v) is not list or len(v) != len(codecs):
                raise _expected(f"an array of {len(codecs)}", v)
            return tuple(_at(c[1], x, f"[{i}]") for i, (c, x) in enumerate(zip(codecs, v)))

        return (lambda v: [c[0](x) for c, x in zip(codecs, v)]), decode_fixed
    if origin is dict and args[0] is str:
        enc, dec = _codec(args[1])

        def decode_object(v):
            if type(v) is not dict:
                raise _expected("an object", v)
            return {k: _at(dec, x, f"[{json.dumps(k, ensure_ascii=False)}]") for k, x in v.items()}

        return (lambda v: {k: enc(x) for k, x in v.items()}), decode_object
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {m.value: m for m in tp}
        expected = "one of " + ", ".join(map(json.dumps, members))

        def decode_member(v):
            try:
                return members[v]
            except (KeyError, TypeError):  # TypeError: an unhashable value
                raise _expected(expected, v) from None

        return attrgetter("value"), decode_member
    if dataclasses.is_dataclass(tp):
        return _record_codec(tp)
    raise TypeError(f"no JSON codec for {tp!r}")


def _record_codec(cls):
    hints = typing.get_type_hints(cls)
    spec = [
        (f.name, *_codec(hints[f.name]),
         f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    ]

    def decode(v):
        if type(v) is not dict:
            raise _expected("an object", v)
        kwargs = {}
        for name, _, dec, required in spec:
            if name in v:
                kwargs[name] = _at(dec, v[name], "." + name)
            elif required:
                raise _Mismatch("missing", "." + name)
        try:
            return cls(**kwargs)
        except ValueError as exc:  # the record's own check, e.g. in __post_init__
            raise _Mismatch(str(exc)) from None

    return (lambda obj: {name: enc(getattr(obj, name)) for name, enc, _, _ in spec}), decode


@contextmanager
def open_atomic(path: str | Path):
    """A UTF-8 text file (no newline translation) that replaces ``path`` atomically:
    a temp file in the target's directory, synced and given an existing target's
    mode when the block ends, then renamed over the target (through a symlink, the
    file it names). A failure leaves the old file as it was and no temp file behind.
    An existing target that is neither a file nor a directory (a pipe or a device)
    is written in place."""
    target = Path(path)  # stat and open follow a symlink, e.g. /dev/stdout to a pipe
    if target.exists() and not (target.is_file() or target.is_dir()):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    given, path = path, Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:  # mode 0o666 under the umask
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        if path.exists():
            os.chmod(tmp, path.stat().st_mode & 0o7777)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # named by the path as given, not the temp or resolved one
            raise OSError(exc.errno, exc.strerror, os.fspath(given)) from exc
        raise


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` as stable-key-ordered JSON through :func:`open_atomic`."""
    with open_atomic(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
