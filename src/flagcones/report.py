"""Report pipeline: run a problem config, render and reparse documents.

Machine output is a single JSON document with top-level keys ``model``,
``cones``, ``assumption``, ``divisors`` plus a ``spec_version`` field.
Every number is an integer or an exact ``"p/q"`` string; rendering
followed by :func:`parse_machine` reproduces the document exactly, and
identical configs produce byte-identical output.
"""

import functools
import itertools
from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import UnionType
from typing import Optional, Union, get_args, get_origin, get_type_hints

from . import seshadri as sesh
from .bundles import split_steps
from .config import ProblemConfig, _decode_once, _require_text, load_json, parse_rational
from .errors import (
    EXIT_OK,
    FlagconesError,
    InternalCheckFailure,
    NotNef,
    ParseError,
    ValidationError,
    exit_code_for,
)
from .flags import (
    Basis,
    DivisorClass,
    FlagModel,
    build_model,
    Positivity,
    _positivity,
    curve_generators,
    pairing_matrix,
    to_nef,
)
from .records import field, fields, record

SPEC_VERSION = 1

@record
class DivisorGeneratorInfo:
    name: str
    label: str
    nef: tuple[Fraction, ...]
    pluecker: tuple[Fraction, ...]


@record
class CurveGeneratorInfo:
    name: str
    label: str
    coords: tuple[Fraction, ...]


def _identity_mismatch(matrix, size: int) -> str:
    """Where ``matrix`` differs from the ``size`` x ``size`` identity, or ''."""
    if len(matrix) != size or any(len(row) != size for row in matrix):
        return f"pairing matrix is not {size} x {size}"
    for i, row in enumerate(matrix):
        unit = (0,) * i + (1,) + (0,) * (size - 1 - i)
        if tuple(row) != unit:
            j = next(j for j, (entry, one) in enumerate(zip(row, unit)) if entry != one)
            return f"pairing matrix is not the identity at ({i + 1}, {j + 1}): {row[j]}"
    return ""


@record
class ConesSection:
    nef_generators: tuple[DivisorGeneratorInfo, ...]
    curve_generators: tuple[CurveGeneratorInfo, ...]
    pairing_matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        size = len(self.curve_generators)
        sizes = {len(self.nef_generators), *(len(c.coords) for c in self.curve_generators)}
        sizes.update(len(v) for g in self.nef_generators for v in (g.nef, g.pluecker))
        problem = _identity_mismatch(self.pairing_matrix, size)
        if not problem and sizes != {size}:
            problem = f"expected {size} nef generators and {size} coordinates per generator"
        if problem:
            raise ValidationError(problem)


@record
class ErrorInfo:
    type: str
    message: str


_NEF, _NOT_NEF = Basis.NEF.value, Positivity.NOT_NEF.value


@record
class DivisorEntry:
    """Per-divisor result; ``error`` is set instead of ``seshadri`` when
    the class could not be evaluated, and the input is echoed back.

    ``classification`` is derived: None without ``nef_coords``, ``not_nef``
    without a Seshadri record, else the position of its lower bound, the
    least nef-basis coordinate.  ``nef_coords`` repeats ``coords`` but for
    a pluecker class's last coordinate, which needs the model's twist.
    """

    name: str
    basis: str
    coords: tuple[Fraction, ...]
    nef_coords: Optional[tuple[Fraction, ...]]
    classification: Optional[str] = field(init=False)
    seshadri: Optional[sesh.SeshadriReport]
    error: Optional[ErrorInfo]

    def __post_init__(self):
        coords, nef, report, error = self.coords, self.nef_coords, self.seshadri, self.error
        if (report is None) == (error is None):
            raise ValidationError("exactly one of seshadri and error must be set")
        classification = None
        if nef is not None:
            if self.basis == _NEF:
                follows = nef == coords
            else:  # the last coordinate needs the model's twist
                follows = len(nef) == len(coords) and nef[:-1] == coords[:-1]
            if not follows:
                raise ValidationError(f"nef_coords do not follow from {self.basis} coords")
            classification = _NOT_NEF if report is None else _positivity(report.lower).value
        object.__setattr__(self, "classification", classification)
        if report is None:
            if (error.type == NotNef.__name__) != (nef is not None):
                raise ValidationError("a NotNef error goes with nef_coords and only with them")
        elif classification in (None, _NOT_NEF):
            raise ValidationError("a seshadri record needs a nef class")


@record
class ReportDocument:
    """A machine document.  The sections must agree with the model: the
    witnesses are those of its flag ranks and filtration steps, and the
    cones have one curve generator per Picard rank."""

    spec_version: int
    model: FlagModel
    cones: Optional[ConesSection] = None
    assumption: Optional[sesh.DivisibilityStatus] = None
    divisors: Optional[tuple[DivisorEntry, ...]] = None

    def __post_init__(self):
        model = self.model
        if self.cones is not None and len(self.cones.curve_generators) != model.picard_rank:
            raise ValidationError(
                f"{len(self.cones.curve_generators)} curve generators for picard rank "
                f"{model.picard_rank}"
            )
        if self.assumption is not None:
            expected = sesh.divisibility_witnesses(model.hn_steps, model.flag_ranks or ())
            if self.assumption.witnesses != expected:
                raise ValidationError("assumption witnesses do not follow from the model")


# ---------------------------------------------------------------------------
# pipeline


def filtration_from_config(config: ProblemConfig) -> tuple[tuple[int, int], ...]:
    """Filtration steps of the configured bundle, unchecked: its model checks them."""
    return config.hn_steps if config.summands is None else split_steps(config.summands)


def model_from_config(config: ProblemConfig) -> FlagModel:
    return build_model(filtration_from_config(config), config.flag_ranks, config.curve)


def assert_duality(model: FlagModel) -> ConesSection:
    """The cone generators and their pairing matrix, which
    :class:`ConesSection` requires to be the identity; a model that breaks
    that raises :class:`InternalCheckFailure` with the same message."""
    matrix, generators = pairing_matrix(model)
    divisor_infos = tuple(
        DivisorGeneratorInfo(g.name, g.label, g.coords, p.coords) for g, p in generators
    )
    curve_infos = tuple(
        CurveGeneratorInfo(c.name, c.label, c.coords) for c in curve_generators(model)
    )
    try:
        return ConesSection(divisor_infos, curve_infos, matrix)
    except ValidationError as exc:
        raise InternalCheckFailure(str(exc)) from None


def _divisor_entry(
    divisor: DivisorClass, model: FlagModel, status: sesh.DivisibilityStatus
) -> DivisorEntry:
    """Evaluate one divisor; the fields reached before a failure are kept."""
    nef_coords = report = error = None
    try:
        converted = to_nef(divisor, model)
        nef_coords = converted.coords
        report = sesh.full_report(converted, model, status)
    except FlagconesError as exc:
        error = ErrorInfo(type(exc).__name__, str(exc))
    basis = divisor.basis.value
    return DivisorEntry(divisor.name, basis, divisor.coords, nef_coords, report, error)


def run_hn(config: ProblemConfig) -> ReportDocument:
    """Filtration-only report; the flag section of the config is ignored."""
    return ReportDocument(SPEC_VERSION, FlagModel(config.curve, filtration_from_config(config)))


def run_cones(config: ProblemConfig) -> ReportDocument:
    """Model plus cone generators and the (verified) pairing matrix."""
    model = model_from_config(config)
    return ReportDocument(SPEC_VERSION, model, assert_duality(model))


def run(config: ProblemConfig) -> ReportDocument:
    """Full report: model, cones, divisibility condition, per-divisor data.

    Per-divisor failures (non-nef class, wrong coordinate count) are
    recorded in the document instead of aborting, so the geometry
    sections are always present once the model builds.
    """
    model = model_from_config(config)
    status = sesh.check_divisibility(model)
    entries = tuple(_divisor_entry(divisor, model, status) for divisor in config.divisors)
    return ReportDocument(SPEC_VERSION, model, assert_duality(model), status, entries)


def worst_exit_code(doc: ReportDocument) -> int:
    """Exit code implied by per-divisor errors recorded in the document."""
    code = EXIT_OK
    for entry in doc.divisors or ():
        if entry.error is not None:
            code = max(code, exit_code_for(entry.error.type))
    return code


# ---------------------------------------------------------------------------
# machine format
#
# One codec serves every machine document: it is derived from the record
# fields and their type hints, compiled once per type.  JSON keys are the
# field names unless a field carries ``metadata={"json": key}``, and one keyed
# ``None`` (last, with a default) is neither written nor read.  A field with
# ``init=False`` is derived: written, and on read it must equal the derived value.  A type's
# ``emit(value, pad, texts, out)`` appends to ``out`` the pieces of what
# ``json.dumps(..., indent=2)`` would write, with ``pad`` the newline and
# indent its value starts on and ``texts`` the rationals and notes written in
# this document; the pieces are joined once per document.
# ``decode(data, memo)`` reads it back, with ``memo`` the rationals decoded
# from this document.


def _at(exc: ParseError, step) -> ParseError:
    """``exc`` located one key or index further out; :func:`from_json` strips
    the leading dot."""
    step = f"[{step}]" if isinstance(step, int) else f".{step}"
    return ParseError(exc.message, step + (exc.location or ""))


def _checked(kind: type, value):
    if type(value) is not kind:
        raise ParseError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _fraction_text(value, texts: dict) -> str:
    """A rational as its integer or as ``"p/q"``, written once per object and
    kept in ``texts`` by ``id`` (``Fraction.__hash__`` costs more than the
    text).  Every value keyed there is reachable from the document being
    written, so it stays alive for the whole call and no other object can take
    its ``id``."""
    key = id(value)
    if (text := texts.get(key)) is None:
        p, q = value.as_integer_ratio()
        text = texts[key] = int.__repr__(p) if q == 1 else f'"{p}/{q}"'
    return text


def _emit_fraction(value, pad, texts: dict, out: list) -> None:
    out.append(_fraction_text(value, texts))


def _emit_fractions(value, pad, texts: dict, out: list) -> None:
    """A ``tuple[Fraction, ...]``, joined into one piece: every item is looked
    up in ``texts`` in one pass, and only the items missing there go through
    :func:`_fraction_text`."""
    found = list(map(texts.get, map(id, value)))
    if None in found:
        found = [text or _fraction_text(item, texts) for text, item in zip(found, value)]
    out.append(_block("[]", found, pad))


def _decode_text(value, memo=None) -> str:
    """A JSON string that UTF-8 can encode, as the config reader requires."""
    _checked(str, value)
    return value if value.isascii() else _require_text(value, None)


# the JSON text of one value of each other scalar type
_WRITERS = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
}


def _decode_fraction(token) -> Fraction:
    """Inverse of :func:`_fraction_text`: a token is read by
    :func:`~flagcones.config.parse_rational` and accepted only if it is what
    the writer writes, so ``"4/2"``, ``" 2/14 "``, ``"+3/5"``, ``"3"`` and
    non-ASCII digits are rejected."""
    if type(token) is int:
        return Fraction(token)
    value = parse_rational(token, None)
    if _fraction_text(value, {}) == f'"{token}"':
        return value
    raise ParseError(f'not "p/q" in lowest terms with q > 1: {token!r}')


def _decode_items(value, decoders, size: Optional[int], memo: dict) -> tuple:
    """Decode a JSON array in one pass; the locating loop runs only on error."""
    _checked(list, value)
    if size is not None and len(value) != size:
        raise ParseError(f"expected {size} items, got {len(value)}")
    try:
        return tuple([decode(item, memo) for decode, item in zip(decoders, value)])
    except ParseError:
        for index, (decode, item) in enumerate(zip(decoders, value)):
            try:
                decode(item, memo)
            except ParseError as exc:
                raise _at(exc, index) from None
        raise


def _decode_notes(value, memo=None) -> dict[str, str]:
    for key, text in _checked(dict, value).items():
        if type(text) is not str or not (key.isascii() and text.isascii()):
            _decode_text(key)
            try:
                _decode_text(text)
            except ParseError as exc:
                raise _at(exc, key) from None
    return value


def _emit_notes(value: Mapping[str, str], pad: str, texts: dict, out: list) -> None:
    """A notes mapping as one piece, written once per object and indent: the
    notes of a :class:`~flagcones.seshadri.SeshadriReport` are one mapping per
    rule, so a document writes each block once."""
    key = (id(value), pad)
    if (text := texts.get(key)) is None:
        write = encode_basestring_ascii
        text = texts[key] = _block("{}", [f"{write(k)}: {write(v)}" for k, v in value.items()], pad)
    out.append(text)


def _block(brackets: str, items: list[str], pad: str) -> str:
    """``items`` one per line, indented one step further than ``pad``, in one
    join; the brackets go onto the end items."""
    if not items:
        return brackets
    inner = pad + "  "
    items[0] = brackets[0] + inner + items[0]
    items[-1] += pad + brackets[1]
    return ("," + inner).join(items)


@functools.cache
def _layout(pad: str, brackets: str, keys: tuple[str, ...]) -> tuple[str, tuple[str, ...], str]:
    """The indent of the items one step inside ``pad``, the head piece of each
    item (its separator, indent and key) and the closing piece; made once per
    indent, so every occurrence is one shared string."""
    inner = pad + "  "
    heads = (brackets[0] + inner + keys[0], *("," + inner + key for key in keys[1:]))
    return inner, heads, pad + brackets[1]


def _record(cls):
    hints = get_type_hints(cls)
    keyed = [(f.metadata.get("json", f.name), f) for f in fields(cls)]
    entries = [(key, f, *_codec(hints[f.name])) for key, f in keyed if key is not None]
    keys = {key for key, *_ in entries}
    heads = tuple(encode_basestring_ascii(key) + ": " for key, *_ in entries)
    writers = [(f.name, enc) for _, f, enc, _ in entries]
    given = [i for i, (_, f, *_) in enumerate(entries) if f.init]
    derived = [(i, key, f.name) for i, (key, f, *_) in enumerate(entries) if not f.init]

    def emit(value, pad, texts, out):
        inner, items, close = _layout(pad, "{}", heads)
        for head, (name, write) in zip(items, writers):
            out.append(head)
            write(getattr(value, name), inner, texts, out)
        out.append(close)

    def decode(value, memo):
        if _checked(dict, value).keys() != keys:
            missing = [key for key, *_ in entries if key not in value]
            if missing:
                raise ParseError("missing key", f".{missing[0]}")
            raise ParseError("unknown key", f".{_decode_text(min(value.keys() - keys))}")
        items = []
        try:
            for key, _, _, dec in entries:
                items.append(dec(value[key], memo))
        except ParseError as exc:
            raise _at(exc, key) from None
        try:
            record = cls(*[items[i] for i in given] if derived else items)
        except FlagconesError as exc:
            raise ParseError(str(exc)) from None
        for i, key, name in derived:
            read, own = items[i], getattr(record, name)  # a mapping must match in key order too
            if read is not own and (read != own or type(read) is dict and list(read) != list(own)):
                raise ParseError(f"{key} does not follow from the other fields")
        return record

    return emit, decode


@functools.cache
def _codec(tp):
    """``(emit, decode)`` for one document type, compiled once.

    Supported: ``Fraction``, ``int``, ``str``, ``bool``, records,
    ``Optional[X]``, ``tuple[X, ...]``, ``dict[str, str]`` or
    ``Mapping[str, str]``, and fixed tuples.
    """
    if tp is Fraction:
        return _emit_fraction, _decode_once(_decode_fraction)
    if tp in _WRITERS:
        write = _WRITERS[tp]
        decode = _decode_text if tp is str else lambda value, memo: _checked(tp, value)
        return (lambda value, pad, texts, out: out.append(write(value))), decode
    if fields(tp):
        return _record(tp)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        emit, decode = _codec(args[0])
        return (
            lambda value, pad, texts, out: (
                out.append("null") if value is None else emit(value, pad, texts, out)
            ),
            lambda value, memo: None if value is None else decode(value, memo),
        )
    if origin in (dict, Mapping):
        return _emit_notes, _decode_notes
    variadic = args[-1] is Ellipsis
    items = args[:1] if variadic else args
    emitters, decoders = zip(*map(_codec, items))
    if variadic:
        emitters, decoders = itertools.repeat(emitters[0]), itertools.repeat(decoders[0])
    size = None if variadic else len(args)

    def emit(value, pad, texts, out):
        if not value:
            out.append("[]")
            return
        inner, (head, sep), close = _layout(pad, "[]", ("", ""))
        for write, item in zip(emitters, value):
            out.append(head)
            write(item, inner, texts, out)
            head = sep
        out.append(close)

    if variadic and items == (Fraction,):
        emit = _emit_fractions
    return emit, lambda value, memo: _decode_items(value, decoders, size, memo)


def _write(value, tp, out: list) -> list:
    """``out`` with the pieces of ``value``, a document of type ``tp``, appended."""
    _codec(tp)[0](value, "\n", {}, out)
    return out


def emit(value, tp=None) -> str:
    """What ``json.dumps(data, indent=2)`` writes for ``data`` the JSON form of
    ``value``, a document of type ``tp`` (default ``type(value)``)."""
    return "".join(_write(value, tp or type(value), []))


def from_json(cls, data):
    """Checked inverse of :func:`emit` after ``json.loads``; raises a located
    :class:`ParseError`.  Each rational token is decoded once per call."""
    try:
        return _codec(cls)[1](data, {})
    except ParseError as exc:
        raise ParseError(exc.message, (exc.location or "").lstrip(".") or "document") from None


def render_machine(doc: ReportDocument) -> str:
    """Deterministic JSON rendering of a report document, joined once."""
    out = _write(doc, ReportDocument, [])
    out.append("\n")
    return "".join(out)


def parse_machine(text: str) -> ReportDocument:
    """Inverse of :func:`render_machine`; every field is type-checked."""
    data = load_json(text)
    if isinstance(data, dict) and data.get("spec_version", SPEC_VERSION) != SPEC_VERSION:
        raise ParseError(f"unsupported spec_version {data['spec_version']!r}")
    return from_json(ReportDocument, data)


# ---------------------------------------------------------------------------
# human format


def _fmt_tuple(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _rows(pairs: list[tuple[str, str]], indent: str = "  ") -> list[str]:
    width = max((len(k) for k, _ in pairs), default=0)
    return [f"{indent}{k.ljust(width)}  {v}" for k, v in pairs]


def _render_model(m: FlagModel) -> list[str]:
    pairs = [
        ("curve", f"{m.curve.label} (genus {m.curve.genus})"),
        ("rank / degree", f"{m.rank} / {m.degree}"),
        ("slope", str(m.slope)),
        ("semistable", "yes" if m.semistable else "no"),
        ("hn steps", "  ".join(_fmt_tuple(s) for s in m.hn_steps)),
        ("quotient slopes", "  ".join(str(s) for s in m.quotient_slopes)),
        ("quotient ranks", "  ".join(str(r) for r in m.quotient_ranks) or "(none)"),
    ]
    if m.flag_ranks is not None:
        flag = ", ".join(str(r) for r in m.flag_ranks)
        pairs += [
            ("flag", f"Fl({flag})"),
            ("hn indices", "  ".join(str(k) for k in m.hn_indices)),
            ("subspace dims", "  ".join(str(s) for s in m.subspace_dims)),
            ("quotient degrees", "  ".join(str(t) for t in m.quotient_degrees)),
            ("picard rank", str(m.picard_rank)),
            ("fiber / total dim", f"{m.fiber_dimension} / {m.total_dimension}"),
        ]
    lines = ["model", *_rows(pairs)]
    for note in m.notes.values():
        lines.append(f"  note: {note}")
    return lines


def _render_cones(c: ConesSection) -> list[str]:
    lines = ["cones", "  nef generators"]
    name_width = max(len(g.name) for g in c.nef_generators)
    for g in c.nef_generators:
        lines.append(
            f"    {g.name.ljust(name_width)}  nef {_fmt_tuple(g.nef)}"
            f"  pluecker {_fmt_tuple(g.pluecker)}  [{g.label}]"
        )
    lines.append("  curve generators")
    name_width = max(len(g.name) for g in c.curve_generators)
    for g in c.curve_generators:
        lines.append(
            f"    {g.name.ljust(name_width)}  {_fmt_tuple(g.coords)}  [{g.label}]"
        )
    lines.append("  pairing matrix (curve generators x nef generators)")
    for row in c.pairing_matrix:
        lines.append("    " + " ".join(str(v) for v in row))
    return lines


def _render_assumption(a: sesh.DivisibilityStatus) -> list[str]:
    lines = [
        "divisibility condition",
        f"  holds: {'yes' if a.holds else 'no'}",
    ]
    for w in a.witnesses:
        if w.hn_index is None:
            detail = "no filtration step of this rank"
        else:
            verdict = "yes" if w.divisible else "no"
            detail = (
                f"step {w.hn_index} has degree {w.subbundle_degree}; "
                f"divisible by {w.flag_rank}: {verdict}"
            )
        lines.append(f"  i={w.index}  flag rank {w.flag_rank}  {detail}")
    for f in a.failures:
        lines.append(f"  failure at i={f.index}: {f.reason}")
    return lines


def _render_divisor(e: DivisorEntry) -> list[str]:
    head = f"  {e.name}  {e.basis} {_fmt_tuple(e.coords)}"
    if e.nef_coords is not None and e.basis != Basis.NEF.value:
        head += f"  = nef {_fmt_tuple(e.nef_coords)}"
    if e.classification is not None:
        head += f"  -> {e.classification}"
    lines = [head]
    if e.error is not None:
        lines.append(f"    error [{e.error.type}]: {e.error.message}")
        return lines
    s = e.seshadri
    general = "unknown" if s.epsilon_general is None else str(s.epsilon_general)
    pairs = [
        ("bounds", f"{s.lower} <= eps <= {s.upper}"),
        ("eps global", str(s.epsilon_global)),
        ("eps at section", str(s.epsilon_at_section)),
        ("eps very general", general),
    ]
    lines.extend(_rows(pairs, indent="    "))
    lines.append(f"    note: {s.notes['general']}")
    return lines


def render_human(doc: ReportDocument) -> str:
    """Aligned plain-text rendering of a report document."""
    lines = _render_model(doc.model)
    if doc.cones is not None:
        lines.append("")
        lines.extend(_render_cones(doc.cones))
    if doc.assumption is not None:
        lines.append("")
        lines.extend(_render_assumption(doc.assumption))
    if doc.divisors is not None:
        lines.append("")
        lines.append("divisors" if doc.divisors else "divisors: (none)")
        for entry in doc.divisors:
            lines.extend(_render_divisor(entry))
    lines.append("")
    return "\n".join(lines)
