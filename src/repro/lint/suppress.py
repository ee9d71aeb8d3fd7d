"""Comment parsing: suppressions and in-source lint markers.

The analyzer is driven by the AST, but three pieces of its contract
live in comments (which the AST does not carry):

* ``# lint: disable=rule-a,rule-b`` — suppress those rules' findings on
  this line; on a ``def``/``class`` line, for the whole body;
* ``# lint: disable-file=rule-a`` — suppress for the entire file;
* markers that *feed* rules — ``# guarded-by: <lock>`` (lock-guard),
  ``# lint: holds-lock=<lock>`` (lock-guard: callers hold the lock),
  ``# lint: frozen`` (frozen-mutation), ``# lint: pickled``
  (picklability), ``# lint: replay-root`` (determinism: treat this
  module as a replay entry point), ``# lint: reference``
  (unreachable-module: this module is an oracle tests compare other
  code against), ``# lint: encodes=Type[,...]`` /
  ``decodes=Type[,...]`` with an optional ``extra=key[,...]`` tail
  (wire-schema: this function serializes those schema classes), and
  ``# wire: key[,...]`` on a schema field line (wire-schema: the keys
  that field travels under).

This module extracts comments with :mod:`tokenize` (so strings that
merely *contain* a ``#`` never count) and exposes the small parsers the
engine and rules share.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: ``lint: disable=a,b`` (set ``ALL`` to silence every rule).
_DISABLE_RE = re.compile(r"lint:\s*disable\s*=\s*([\w\-,\s]+)")
#: ``lint: disable-file=a,b`` — file-scoped suppression.
_DISABLE_FILE_RE = re.compile(r"lint:\s*disable-file\s*=\s*([\w\-,\s]+)")
#: ``guarded-by: <lock>`` — attribute-to-lock annotation.
_GUARDED_RE = re.compile(r"guarded-by:\s*([A-Za-z_]\w*)")
#: ``lint: holds-lock=<lock>`` — the enclosing callable runs under it.
_HOLDS_RE = re.compile(r"lint:\s*holds-lock\s*=\s*([A-Za-z_]\w*)")
#: ``lint: frozen`` — the class is immutable after construction.
_FROZEN_RE = re.compile(r"lint:\s*frozen\b")
#: ``lint: pickled`` — instances cross a process boundary.
_PICKLED_RE = re.compile(r"lint:\s*pickled\b")
#: ``lint: replay-root`` — determinism treats this module as a root.
_REPLAY_ROOT_RE = re.compile(r"lint:\s*replay-root\b")
#: ``lint: reference`` — a test oracle, kept though nothing imports it.
_REFERENCE_RE = re.compile(r"lint:\s*reference\b")
#: ``lint: encodes=TypeA,TypeB extra=k1,k2`` — a wire encoder.
_ENCODES_RE = re.compile(
    r"lint:\s*encodes\s*=\s*([\w.,]+)(?:\s+extra\s*=\s*([\w.,]+))?"
)
#: ``lint: decodes=TypeA,TypeB extra=k1,k2`` — a wire decoder.
_DECODES_RE = re.compile(
    r"lint:\s*decodes\s*=\s*([\w.,]+)(?:\s+extra\s*=\s*([\w.,]+))?"
)
#: ``wire: key1,key2`` — the wire keys a schema field travels under.
_WIRE_RE = re.compile(r"wire:\s*([\w,]+)")


def extract_comments(text: str) -> Dict[int, str]:
    """``{line: comment text}`` for every comment in ``text``.

    Tolerates tokenization failures (the engine reports the syntax
    error separately) by returning what was collected so far.
    """
    comments: Dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, SyntaxError, IndentationError):
        pass
    return comments


def _split_rules(blob: str) -> Set[str]:
    return {part.strip() for part in blob.split(",") if part.strip()}


def disabled_rules(comment: str) -> Set[str]:
    """Rule names suppressed by one line's comment (``ALL`` = every rule)."""
    match = _DISABLE_RE.search(comment)
    return _split_rules(match.group(1)) if match else set()


def file_disabled_rules(comments: Dict[int, str]) -> Set[str]:
    """Rule names suppressed for the whole file."""
    disabled: Set[str] = set()
    for comment in comments.values():
        match = _DISABLE_FILE_RE.search(comment)
        if match:
            disabled |= _split_rules(match.group(1))
    return disabled


def guarded_lock(comment: str) -> Optional[str]:
    """The lock name of a ``guarded-by:`` annotation, if present."""
    match = _GUARDED_RE.search(comment)
    return match.group(1) if match else None


def held_locks(comments: Dict[int, str], lines: Iterable[int]) -> List[str]:
    """Locks declared held (``holds-lock=``) on any of ``lines``."""
    held = []
    for line in lines:
        comment = comments.get(line)
        if comment:
            match = _HOLDS_RE.search(comment)
            if match:
                held.append(match.group(1))
    return held


def held_locks_with_lines(
    comments: Dict[int, str], lines: Iterable[int]
) -> Dict[str, int]:
    """``{lock: comment line}`` for ``holds-lock=`` markers on ``lines``.

    The line-aware variant of :func:`held_locks`, used by the engine's
    stale-suppression pass: lock-guard credits the specific comment
    line whose marker actually excused an access.
    """
    held: Dict[str, int] = {}
    for line in lines:
        comment = comments.get(line)
        if comment:
            match = _HOLDS_RE.search(comment)
            if match and match.group(1) not in held:
                held[match.group(1)] = line
    return held


def holds_lock_lines(comments: Dict[int, str]) -> Dict[int, str]:
    """``{line: lock}`` for every ``holds-lock=`` comment in the file."""
    found: Dict[int, str] = {}
    for line, comment in comments.items():
        match = _HOLDS_RE.search(comment)
        if match:
            found[line] = match.group(1)
    return found


def marked_frozen(comment: str) -> bool:
    """Whether a ``lint: frozen`` marker is present."""
    return bool(_FROZEN_RE.search(comment))


def marked_pickled(comment: str) -> bool:
    """Whether a ``lint: pickled`` marker is present."""
    return bool(_PICKLED_RE.search(comment))


def marked_replay_root(comment: str) -> bool:
    """Whether a ``lint: replay-root`` marker is present."""
    return bool(_REPLAY_ROOT_RE.search(comment))


def marked_reference(comment: str) -> bool:
    """Whether a ``lint: reference`` marker is present."""
    return bool(_REFERENCE_RE.search(comment))


def _split_names(blob: str) -> Tuple[str, ...]:
    return tuple(part.strip() for part in blob.split(",") if part.strip())


def wire_marker(
    comment: str,
) -> Optional[Tuple[str, Tuple[str, ...], Tuple[str, ...]]]:
    """Parse a wire-schema codec marker from one comment.

    Returns ``(kind, types, extras)`` where ``kind`` is ``"encodes"``
    or ``"decodes"``, or ``None`` when the comment carries no marker.
    """
    for kind, regex in (("encodes", _ENCODES_RE), ("decodes", _DECODES_RE)):
        match = regex.search(comment)
        if match:
            extras = _split_names(match.group(2)) if match.group(2) else ()
            return kind, _split_names(match.group(1)), extras
    return None


def wire_field_keys(comment: str) -> Optional[Tuple[str, ...]]:
    """The ``# wire: a,b`` key aliases on a schema field line, if any."""
    match = _WIRE_RE.search(comment)
    return _split_names(match.group(1)) if match else None
