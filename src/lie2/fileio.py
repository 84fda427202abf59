"""Bit-exact text format for algebras and their 2-maps.

A file is line-oriented and human-diffable:

    lie2algebra 1
    name f6
    dim 6
    field_degree 1
    bracket 0 3 0,0,0,1,0,0
    twomap 0 1,0,0,0,0,0
    ...

``bracket i j <vector>`` stores [b_i, b_j] for i < j only; the mirror
entries are reconstructed (characteristic 2) and the diagonal is forced to
zero, so a file containing an (i, i) entry or an i > j entry is rejected.
``twomap i <vector>`` lines give the image of every basis vector, zero
images included.  A coefficient vector is a comma-separated list of n
field elements, each a little-endian bit string of exactly k polynomial
coefficients ("1" or "0" for GF(2), e.g. "110" for 1 + x over GF(8)).

Saving writes brackets sorted by (i, j) and all twomap lines in order, so
save -> load -> save is byte-identical.  A name that would not read back
as written (non-ASCII, unprintable, holding a ``#`` or with surrounding
whitespace) is refused before anything is written.
"""

from __future__ import annotations

import io
import re

from .algebra import LieAlgebra
from .errors import FileFormatError
from .field import gf
from .restricted import TwoMap

FORMAT_NAME = "lie2algebra"
FORMAT_VERSION = 1


def _vector_to_text(field, n: int, v: int) -> str:
    k = field.k
    bits = format(v, f"0{n * k}b")[::-1]  # bit a of v at position a
    return ",".join(bits[i:i + k] for i in range(0, n * k, k))


def _text_to_vector(field, n: int, text: str, lineno: int) -> int:
    """Coordinate i is part i, a little-endian bit string at bits [ik, (i+1)k)."""
    parts = text.split(",")
    if len(parts) != n:
        raise FileFormatError(
            lineno, "DimensionMismatch",
            f"coefficient vector has {len(parts)} entries, expected {n}"
        )
    for part in parts:
        if len(part) != field.k or part.strip("01"):
            raise FileFormatError(
                lineno, "MalformedField",
                f"field element {part!r} must be {field.k} bits of 0/1"
            )
    return int("".join(parts)[::-1], 2)


def _decimal(text: str, lineno: int, what: str) -> int:
    """A plain decimal: 1 to 9 ASCII digits, no sign, underscore or leading zero."""
    # nine digits reach far past any file that can load, and keep int() clear
    # of Python's limit on the length of digit strings
    if not re.fullmatch(r"0|[1-9][0-9]{0,8}", text):
        raise FileFormatError(lineno, "Malformed", f"{what} must be a plain decimal of at most 9 digits")
    return int(text)


def _count(parts, lineno: int) -> int:
    """The one decimal after a ``dim`` or ``field_degree`` tag."""
    if len(parts) != 2:
        raise FileFormatError(lineno, "Malformed", f"{parts[0]} wants one integer")
    return _decimal(parts[1], lineno, parts[0])


def dumps(g: LieAlgebra, tm: TwoMap) -> str:
    f, n = g.field, g.dim
    name = g.name or "unnamed"
    if not (name.isascii() and name.isprintable()) or "#" in name or name != name.strip():
        raise ValueError(f"name {name!r} is not printable ASCII without '#' and surrounding "
                         "whitespace, so it would not read back as written")
    out = io.StringIO()
    out.write(f"{FORMAT_NAME} {FORMAT_VERSION}\n")
    out.write(f"name {name}\n")
    out.write(f"dim {n}\n")
    out.write(f"field_degree {f.k}\n")
    for i in range(n):
        for j in range(i + 1, n):
            if g.table[i][j]:
                out.write(f"bracket {i} {j} {_vector_to_text(f, n, g.table[i][j])}\n")
    for i in range(n):
        out.write(f"twomap {i} {_vector_to_text(f, n, tm.images[i])}\n")
    return out.getvalue()


def save(g: LieAlgebra, tm: TwoMap, path) -> None:
    text = dumps(g, tm)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def loads(text: str):
    """Parse the format; returns (LieAlgebra, TwoMap).

    Raises FileFormatError with the offending line number on any defect:
    unsupported version, diagonal bracket entries (AlternatingViolation),
    lower-triangular entries (NonSymmetricEntry), duplicates, bad counts.
    """
    lines = text.splitlines()
    header = None
    name = None
    dim = None
    degree = None
    brackets = {}
    twomap = {}

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if header is None:
            if tag != FORMAT_NAME or len(parts) != 2:
                raise FileFormatError(lineno, "MissingHeader",
                                      f"expected '{FORMAT_NAME} <version>' first")
            if parts[1] != str(FORMAT_VERSION):
                raise FileFormatError(lineno, "UnsupportedVersion",
                                      f"format version {parts[1]} not supported")
            header = FORMAT_VERSION
            continue
        if tag == "name":
            if name is not None:
                raise FileFormatError(lineno, "DuplicateEntry", "name repeated")
            name = line.split(None, 1)[1] if len(parts) > 1 else ""
        elif tag == "dim":
            if dim is not None:
                raise FileFormatError(lineno, "DuplicateEntry", "dim repeated")
            dim = _count(parts, lineno)
        elif tag == "field_degree":
            if degree is not None:
                raise FileFormatError(lineno, "DuplicateEntry", "field_degree repeated")
            degree = _count(parts, lineno)
            if not 1 <= degree <= 16:
                raise FileFormatError(lineno, "Malformed", "field_degree must be 1..16")
        elif tag == "bracket":
            if dim is None or degree is None:
                raise FileFormatError(lineno, "Malformed", "bracket before dim/field_degree")
            if len(parts) != 4:
                raise FileFormatError(lineno, "Malformed", "bracket wants: i j vector")
            i, j = (_decimal(parts[1], lineno, "a bracket index"),
                    _decimal(parts[2], lineno, "a bracket index"))
            if not (0 <= i < dim and 0 <= j < dim):
                raise FileFormatError(lineno, "DimensionMismatch",
                                      f"bracket index out of range 0..{dim - 1}")
            if i == j:
                raise FileFormatError(lineno, "AlternatingViolation",
                                      f"diagonal bracket ({i},{i}) must be zero and is not stored")
            if i > j:
                raise FileFormatError(lineno, "NonSymmetricEntry",
                                      f"store only i < j; ({i},{j}) is redundant in characteristic 2")
            if (i, j) in brackets:
                raise FileFormatError(lineno, "DuplicateEntry", f"bracket ({i},{j}) repeated")
            brackets[(i, j)] = _text_to_vector(gf(degree), dim, parts[3], lineno)
        elif tag == "twomap":
            if dim is None or degree is None:
                raise FileFormatError(lineno, "Malformed", "twomap before dim/field_degree")
            if len(parts) != 3:
                raise FileFormatError(lineno, "Malformed", "twomap wants: i vector")
            i = _decimal(parts[1], lineno, "a twomap index")
            if not 0 <= i < dim:
                raise FileFormatError(lineno, "DimensionMismatch", "twomap index out of range")
            if i in twomap:
                raise FileFormatError(lineno, "DuplicateEntry", f"twomap {i} repeated")
            twomap[i] = _text_to_vector(gf(degree), dim, parts[2], lineno)
        else:
            raise FileFormatError(lineno, "Malformed", f"unknown directive {tag!r}")

    last = len(lines)
    if header is None:
        raise FileFormatError(1, "MissingHeader", "empty file")
    if dim is None or degree is None:
        raise FileFormatError(last, "Malformed", "missing dim or field_degree")
    if len(twomap) != dim:  # the stored indices are distinct and below dim
        first = next(i for i in range(dim) if i not in twomap)
        raise FileFormatError(last, "Malformed",
                              f"{dim - len(twomap)} twomap lines missing, the first for index {first}")
    g = LieAlgebra(gf(degree), dim, brackets, name)
    return g, TwoMap([twomap[i] for i in range(dim)])


def load(path):
    """Read and parse a file; an unreadable or non-ASCII file is a FileFormatError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FileFormatError(None, "Unreadable", f"{path}: {exc.strerror or exc}") from None
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FileFormatError(
            data.count(b"\n", 0, exc.start) + 1, "NonAscii",
            f"byte {data[exc.start]:#04x} at offset {exc.start} is not ASCII"
        ) from None
    return loads(text)
