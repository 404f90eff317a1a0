"""Problem configurations: a small JSON document, parsed exactly.

Example::

    {
      "curve": {"genus": 0, "label": "X"},
      "bundle": {"summands": [{"degree": 1, "multiplicity": 1},
                              {"degree": 2, "multiplicity": 1},
                              {"degree": 0, "multiplicity": 3}]},
      "flag": {"quotient_ranks": [4, 3]},
      "divisors": [{"name": "L", "basis": "nef", "coords": [3, 4, "1/2"]}]
    }

The bundle is given either by ``summands`` (degree + multiplicity, so
rank-3 trivial summands need not be repeated) or by ``hn_steps``
(cumulative ``[rank, degree]`` pairs asserted by the user); either way
the config holds the filtration steps only.  Rationals
are integers or quoted ``"p/q"`` strings; floats are rejected so that no
inexact value can enter.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .bundles import CurveInfo, split_steps
from .errors import ParseError, ValidationError
from .flags import Basis, DivisorClass
from .records import field, record

_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?\Z")


def _too_many_digits() -> str:
    return f"integer has more than {sys.get_int_max_str_digits()} digits"


# as dict keys True and 1.0 equal 1, so only arrays of ints and strings are shared
_tokens_only = frozenset((int, str)).issuperset


def _shared_unique_keys(share):
    """The object hook of one document: duplicate keys are rejected, and each
    string value, and each item of an array of only ints and strings, becomes
    the first equal token given to ``share``, the document's ``dict.setdefault``."""

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            keys = [key for key, _ in pairs]
            duplicate = next(key for key in keys if keys.count(key) > 1)
            raise ParseError(f"duplicate key {duplicate!r}")
        for key, value in pairs:
            kind = type(value)
            if kind is str:
                obj[key] = share(value, value)
            elif kind is list and _tokens_only(map(type, value)):
                obj[key] = list(map(share, value, value))
        return obj

    return unique_keys


def load_json(text: str):
    """Decode a JSON document; every failure is a :class:`ParseError`.

    Duplicate object keys, integers longer than the interpreter's digit
    limit and nesting deeper than its recursion limit are rejected too.
    Equal string values and equal int or string array items are one object
    within a document, never across documents.
    """
    try:
        return json.loads(text, object_pairs_hook=_shared_unique_keys({}.setdefault))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from None
    except ValueError:
        raise ParseError(_too_many_digits()) from None
    except RecursionError:
        raise ParseError("document is nested too deeply") from None


def parse_rational(value, location: str | None = "value") -> Fraction:
    """Exact rational from an int or a ``"p/q"`` string."""
    if isinstance(value, str):
        match = _RATIONAL.match(value.strip())
        if match is None:
            raise ParseError(f"not a rational: {value!r}", location)
        try:
            numerator, denominator = int(match[1]), int(match[2] or 1)
        except ValueError:
            raise ParseError(_too_many_digits(), location) from None
        if denominator == 0:
            raise ParseError("zero denominator", location)
        return Fraction(numerator, denominator)
    if isinstance(value, bool):
        raise ParseError("expected a rational, got a boolean", location)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(
            "floating point numbers are not accepted; write \"p/q\"", location
        )
    raise ParseError(f"not a rational: {value!r}", location)


def _decode_once(decode):
    """``decode`` as ``decode_once(token, memo)``, which keeps int and str tokens
    in the dict ``memo`` so that each distinct one is decoded once per document;
    as dict keys ``1.0`` and ``True`` equal ``1``, so no other token is looked up."""

    def decode_once(token, memo: dict):
        if type(token) is not int and type(token) is not str:
            return decode(token)
        if (value := memo.get(token)) is None:
            value = memo[token] = decode(token)
        return value

    return decode_once


def _require_int(value, location: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {value!r}", location)
    return value


def _require_text(value: str, location: str) -> str:
    """``value`` if UTF-8 can encode it, which it cannot with a lone surrogate."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ParseError(f"lone surrogate {value[exc.start]!r} is not UTF-8", location) from None
    return value


def _require_object(value, location: str, allowed: set[str]) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"expected an object, got {type(value).__name__}", location)
    unknown = set(value) - allowed
    if unknown:
        raise ValidationError(
            f"{location}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    return value


def _require_array(value, location: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"expected an array, got {type(value).__name__}", location)
    return value


@record
class ProblemConfig:
    """One problem: curve, the bundle's filtration steps, flag choice, divisors.

    The steps are left unchecked here; the :class:`~flagcones.flags.FlagModel`
    built from them checks them.
    """

    curve: CurveInfo
    hn_steps: tuple[tuple[int, int], ...]
    flag_ranks: tuple[int, ...]
    divisors: tuple[DivisorClass, ...] = field(default=())


def _built(make, where: str, *args):
    """``make(*args)``, with a :class:`ValidationError` prefixed by the path ``where``."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _parse_curve(data) -> CurveInfo:
    if data is None:
        return CurveInfo()
    obj = _require_object(data, "curve", {"genus", "label"})
    genus = _require_int(obj.get("genus", 0), "curve.genus")
    label = obj.get("label", "X")
    if not isinstance(label, str):
        raise ParseError(f"expected a string, got {label!r}", "curve.label")
    return _built(CurveInfo, "curve", genus, _require_text(label, "curve.label"))


def _parse_bundle(data) -> tuple[tuple[int, int], ...]:
    """The bundle's filtration steps: ``hn_steps`` as given, or those of
    the split bundle with the given ``summands``."""
    obj = _require_object(data, "bundle", {"summands", "hn_steps"})
    if ("summands" in obj) == ("hn_steps" in obj):
        raise ValidationError("bundle must have exactly one of 'summands' or 'hn_steps'")
    if "summands" in obj:
        entries = _require_array(obj["summands"], "bundle.summands")
        if not entries:
            raise ValidationError("bundle.summands must not be empty")
        pairs = []
        for pos, entry in enumerate(entries):
            where = f"bundle.summands[{pos}]"
            item = _require_object(entry, where, {"degree", "multiplicity"})
            if "degree" not in item:
                raise ValidationError(f"{where}: missing 'degree'")
            degree = _require_int(item["degree"], f"{where}.degree")
            multiplicity = _require_int(
                item.get("multiplicity", 1), f"{where}.multiplicity"
            )
            if multiplicity < 1:
                raise ValidationError(f"{where}: multiplicity must be >= 1, got {multiplicity}")
            pairs.append((degree, multiplicity))
        return split_steps(pairs)
    entries = _require_array(obj["hn_steps"], "bundle.hn_steps")
    if not entries:
        raise ValidationError("bundle.hn_steps must not be empty")
    steps = []
    for pos, entry in enumerate(entries):
        where = f"bundle.hn_steps[{pos}]"
        pair = _require_array(entry, where)
        if len(pair) != 2:
            raise ValidationError(f"{where}: expected [rank, degree]")
        steps.append(
            (_require_int(pair[0], f"{where}[0]"), _require_int(pair[1], f"{where}[1]"))
        )
    return tuple(steps)


def _parse_flag(data) -> tuple[int, ...]:
    obj = _require_object(data, "flag", {"quotient_ranks"})
    if "quotient_ranks" not in obj:
        raise ValidationError("flag: missing 'quotient_ranks'")
    entries = _require_array(obj["quotient_ranks"], "flag.quotient_ranks")
    if not entries:
        raise ValidationError("flag.quotient_ranks must not be empty")
    ranks = []
    for pos, entry in enumerate(entries):
        rank = _require_int(entry, f"flag.quotient_ranks[{pos}]")
        if rank < 1:
            raise ValidationError(
                f"flag.quotient_ranks[{pos}] must be >= 1, got {rank}"
            )
        ranks.append(rank)
    return tuple(ranks)


def _parse_divisors(data) -> tuple[DivisorClass, ...]:
    if data is None:
        return ()
    entries = _require_array(data, "divisors")
    divisors = []
    rational, memo = _decode_once(parse_rational), {}
    for pos, entry in enumerate(entries):
        where = f"divisors[{pos}]"
        item = _require_object(entry, where, {"name", "basis", "coords"})
        name = item.get("name")
        if not isinstance(name, str) or not name:
            raise ValidationError(f"{where}: 'name' must be a nonempty string")
        basis_text = item.get("basis")
        try:
            basis = Basis(basis_text)
        except ValueError:
            raise ValidationError(
                f"{where}: 'basis' must be 'nef' or 'pluecker', got {basis_text!r}"
            ) from None
        coords_raw = _require_array(item.get("coords"), f"{where}.coords")
        try:
            coords = tuple([rational(v, memo) for v in coords_raw])
        except ParseError:
            for j, v in enumerate(coords_raw):  # locate the first bad coordinate
                parse_rational(v, f"{where}.coords[{j}]")
            raise
        name = _require_text(name, f"{where}.name")
        divisors.append(_built(DivisorClass, where, basis, coords, name))
    return tuple(divisors)


def parse_config(text: str) -> ProblemConfig:
    """Parse and validate a JSON problem document."""
    root = _require_object(load_json(text), "document", {"curve", "bundle", "flag", "divisors"})
    if "bundle" not in root:
        raise ValidationError("document: missing 'bundle'")
    if "flag" not in root:
        raise ValidationError("document: missing 'flag'")
    return ProblemConfig(
        curve=_parse_curve(root.get("curve")),
        hn_steps=_parse_bundle(root["bundle"]),
        flag_ranks=_parse_flag(root["flag"]),
        divisors=_parse_divisors(root.get("divisors")),
    )
