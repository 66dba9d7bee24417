"""Structured text I/O: the repo-wide JSON document formats.

Every number that must stay exact travels as a string: rationals are
written "n/d" (or a plain integer string) and parsed back without any
float round trip. Decimal strings like "0.25" are accepted on input and
converted exactly. Bare JSON integers are accepted; JSON floats are
rejected, because they have already lost exactness.

Document shapes:

  distribution   {"alphabet": [...], "pmf": ["1/2", ...]}
  joint          {"x_labels": [...], "y_labels": [...], "joint": [[...], ...]}
  key law        {"atoms": [["010", "1/8"], ...], "tail": "0"}
  hash table     {"labels": [...], "values": [1, 2, ...], "m": 2}
  decomposition  {"alphabet": [...], "rounds": [{"w", "weight",
                  "conditional", "codewords"}, ...]}
  transcript     [{"sender": "alice", "kind": "hash", "value": 1}, ...]
  run log        {"runs": [{"transcript": [...], "keys": {...}}, ...]}

Transcripts and run logs are output formats; nothing reads them back.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .errors import FormatError, ValidationError
from .keylaws import KeyLaw, RsbsVerdict
from .probability import JointPmf, Pmf

if TYPE_CHECKING:
    from .common import KeyAgreeEngine
    from .reconciled import HashFunction, Transcript


def parse_rational(value: Any) -> Fraction:
    """Exact rational from a document value: int, "n/d", or decimal string."""
    if isinstance(value, bool):
        raise FormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise FormatError(
            f"float {value!r} rejected: write rationals as strings ('1/3', '0.25')"
        )
    if isinstance(value, str):
        if "/" not in value:  # "n/d": int refuses each part past the limit
            _check_decimal_size(value)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational: {value!r} ({exc})") from None
    raise FormatError(f"not a rational: {value!r}")


# CPython's default int-to-str limit; decimals are held to it where the
# interpreter has no limit or it is switched off (0)
_DECIMAL_DIGITS_CAP = 4300


def _check_decimal_size(text: str) -> None:
    """Refuse a decimal whose digits or exponent pass the int-to-str limit,
    or ``_DECIMAL_DIGITS_CAP`` when there is none.

    ``Fraction`` scales a decimal by 10**exponent and by 10**(fraction
    digits) before any limit applies, so "1e-99999999" would build a
    hundred-million-digit integer.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or _DECIMAL_DIGITS_CAP
    mantissa, _, exponent = text.lower().partition("e")
    digits = sum(c.isdecimal() for c in mantissa)
    power = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    too_long = len(power) > len(str(limit))
    if digits > limit or too_long or (power.isdecimal() and int(power) > limit):
        raise FormatError(
            f"a decimal has more than {limit} digits or an exponent past {limit}"
        )


def _ratio(value: Any) -> tuple[int, int]:
    """(numerator, denominator) of a document rational, as parse_rational
    reads it but not always in lowest terms.

    An int, or a plain "n/d" string (ASCII digits on both sides, nonzero
    denominator), is read with ``int`` alone. Everything else, and a part
    ``int`` refuses as past the int-to-str digit limit, goes through
    ``parse_rational``, so refusals and their messages are its own.
    """
    if type(value) is int:
        return value, 1
    if type(value) is str and value.isascii():
        num, _, den = value.partition("/")
        d = _digits(den)  # None when there is no "/"
        n = _digits(num) if d else None
        if n is not None:
            return n, d
    f = parse_rational(value)
    return f.numerator, f.denominator


def _digits(text: str) -> int | None:
    """The int an ASCII string of digits spells, or None for any other
    string and for one past the int-to-str digit limit."""
    if text.isdigit():
        try:
            return int(text)
        except ValueError:
            pass
    return None


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    try:
        return str(value)
    except ValueError:  # a numerator or denominator past the digit limit
        raise ValidationError(
            f"a rational has more than {sys.get_int_max_str_digits()} digits, "
            "the int-to-str limit"
        ) from None


def _require(doc: Mapping, key: str, kind: type) -> Any:
    if key not in doc:
        raise FormatError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise FormatError(f"field {key!r} must be {kind.__name__}")
    return value


def _labels(raw: Sequence) -> tuple[str, ...]:
    if not set(map(type, raw)) <= {str}:
        for item in raw:
            if not isinstance(item, str):
                raise FormatError(f"label {item!r} must be a string")
    return tuple(raw)


# ---------------------------------------------------------------------------
# Source distributions.


def parse_pmf(doc: Mapping) -> Pmf:
    alphabet = _labels(_require(doc, "alphabet", list))
    raw = _require(doc, "pmf", list)
    if len(raw) != len(alphabet):
        raise FormatError(
            f"{len(alphabet)} labels but {len(raw)} masses"
        )
    # one pass: an ASCII "n/d" entry is read here, each distinct "d" once,
    # and any other entry by _ratio. While every nonzero mass has one
    # denominator, nums is the only per-entry list; a zero mass fits any
    seen: dict[str, int] = {}
    nums = []
    den = 0
    dens = None  # per-entry denominators, once two nonzero masses differ in one
    for value in raw:
        n = None
        if type(value) is str and value.isascii():
            num, _, text = value.partition("/")
            d = seen.get(text)
            if d is None:  # 0 marks a denominator only _ratio may read
                d = seen[text] = _digits(text) or 0
            if d and num.isdigit():
                try:
                    n = int(num)
                except ValueError:  # past the digit limit: _ratio refuses it
                    pass
        if n is None:
            n, d = _ratio(value)
        if dens is not None:
            dens.append(d)
        elif n and d != den:
            if den:
                dens = [den] * len(nums)
                dens.append(d)
            else:
                den = d
        nums.append(n)
    try:
        if dens is None:
            return Pmf(alphabet, nums, den or 1)
        return Pmf.from_ratios(nums, dens, alphabet)
    except Exception as exc:  # normalization and label errors, deficit included
        raise FormatError(str(exc)) from None


def parse_joint(doc: Mapping) -> JointPmf:
    x_labels = _labels(_require(doc, "x_labels", list))
    y_labels = _labels(_require(doc, "y_labels", list))
    rows = _require(doc, "joint", list)
    if len(rows) != len(x_labels):
        raise FormatError(f"{len(x_labels)} x labels but {len(rows)} rows")
    ny = len(y_labels)
    # a dense document is mostly the string "0": it is skipped unparsed,
    # and each other distinct string is parsed once
    parsed: dict[str, tuple[int, int]] = {}
    cells = []
    for ix, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ny:
            raise FormatError("joint rows must match y_labels in length")
        for iy, value in enumerate(row):
            if value == "0":
                continue
            if type(value) is str:
                r = parsed.get(value)
                if r is None:
                    r = parsed[value] = _ratio(value)
            else:
                r = _ratio(value)
            if r[0]:
                cells.append((ix, iy, *r))
    try:
        return JointPmf.from_ratios(cells, x_labels, y_labels)
    except Exception as exc:
        raise FormatError(str(exc)) from None


def parse_source(doc: Mapping) -> Pmf | JointPmf:
    """Sniff a distribution document: single pmf or joint."""
    if "joint" in doc:
        return parse_joint(doc)
    if "pmf" in doc:
        return parse_pmf(doc)
    raise FormatError("document has neither 'pmf' nor 'joint'")


def read_document(path: str) -> Any:
    # ValueError covers bad JSON, bad UTF-8 and an integer past the
    # int-to-str limit; RecursionError, nesting too deep to decode
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid document: {exc}") from None


def dumps(doc: Any) -> str:
    """Deterministic rendering: sorted keys, stable indentation."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def read_object(path: str) -> dict:
    """Read a document that must be a JSON object; every loader starts here."""
    doc = read_document(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected an object document")
    return doc


def load_distribution(path: str) -> Pmf:
    return parse_pmf(read_object(path))


def load_source(path: str) -> Pmf | JointPmf:
    return parse_source(read_object(path))


# ---------------------------------------------------------------------------
# Key laws and verifier verdicts.


def parse_key_law(doc: Mapping) -> KeyLaw:
    atoms = _require(doc, "atoms", list)
    table = {}
    for entry in atoms:
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f"law atom {entry!r} must be a [key, mass] pair")
        key, mass = entry
        if not isinstance(key, str):
            raise FormatError(f"law key {key!r} must be a string")
        if key in table:
            raise FormatError(f"duplicate law key {key!r}")
        table[key] = parse_rational(mass)
    tail = parse_rational(doc.get("tail", 0))
    try:
        return KeyLaw.from_dict(table, tail)
    except Exception as exc:
        raise FormatError(str(exc)) from None


def rsbs_verdict_document(v: RsbsVerdict) -> dict:
    return {
        "valid": v.valid,
        "checked_prefixes": v.checked_prefixes,
        "tail": format_rational(v.tail),
        "tail_slack": None if v.tail_slack is None else format_rational(v.tail_slack),
        "violations": [
            {
                "position": viol.position,
                "prefix": viol.prefix,
                "p_zero": format_rational(viol.p_zero),
                "p_one": format_rational(viol.p_one),
            }
            for viol in v.violations
        ],
    }


# ---------------------------------------------------------------------------
# Decomposition dumps.


def check_printable_depth(depth: int) -> None:
    """Refuse a depth whose round weight 1/2**depth cannot be printed.

    Callers check before building any round, so a depth past the
    interpreter's int-to-str digit limit fails at once, not after it.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 2**depth has fewer than depth digits, so only a deeper one can overflow
    if limit and depth > limit:
        deepest = (10**limit).bit_length() - 1
        if depth > deepest:
            raise ValidationError(
                f"depth {depth} exceeds {deepest}: deeper round weights have "
                f"more than {limit} digits, the int-to-str limit"
            )


def check_printable_int(value: int) -> int:
    """``value``, refused when it has more digits than str() may print."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and abs(value) >= 10**limit:
        raise ValidationError(
            f"an integer has more than {limit} digits, the int-to-str limit"
        )
    return value


def decomposition_document(engine: KeyAgreeEngine, upto: int) -> dict:
    """Per-round dump to depth ``upto``, diffable against any oracle.

    A depth whose round weight is unprintable is refused before any round
    is built.
    """
    if upto < 0:
        raise ValidationError("depth must be nonnegative")
    check_printable_depth(upto)
    labels = engine.pmf.labels
    rounds = []
    for w in range(1, upto + 1):
        rnd = engine.round(w)
        conditional = engine.round_conditional(w)
        rounds.append(
            {
                "w": w,
                "weight": format_rational(Fraction(1, 1 << w)),
                "conditional": [format_rational(m) for m in conditional.masses],
                # selection order, the order the protocol emits in
                "codewords": {labels[i]: rnd.codeword(i) for i in rnd.order},
            }
        )
    return {
        "alphabet": list(labels),
        "pmf": [format_rational(m) for m in engine.pmf.masses],
        "rounds": rounds,
        "tail": format_rational(Fraction(1, 1 << upto)),
    }


# ---------------------------------------------------------------------------
# Hash tables.


def hash_function_document(h: HashFunction) -> dict:
    return {
        "labels": list(h.labels),
        "values": list(h.values),
        "m": h.m,
        "provenance": h.provenance,
    }


def parse_hash_function(doc: Mapping) -> HashFunction:
    from .reconciled import HashFunction  # loaded only when a hash table is parsed

    labels = _labels(_require(doc, "labels", list))
    values = _require(doc, "values", list)
    m = _require(doc, "m", int)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise FormatError(f"bucket value {v!r} must be an integer")
    provenance = doc.get("provenance", "fixed")
    try:
        return HashFunction(labels, tuple(values), m, provenance)
    except Exception as exc:
        raise FormatError(str(exc)) from None


def load_hash_function(path: str) -> HashFunction:
    return parse_hash_function(read_object(path))


# ---------------------------------------------------------------------------
# Transcript and run logs.


def transcript_document(t: Transcript) -> list[dict]:
    return [{"sender": s, "kind": k, "value": v} for s, k, v in t]


def run_record(transcript: Transcript, key_a: str, key_b: str, ideal: str) -> dict:
    return {
        "transcript": transcript_document(transcript),
        "keys": {"alice": key_a, "bob": key_b, "ideal": ideal},
    }
