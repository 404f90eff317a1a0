"""Report pipeline: run a problem config, render and reparse documents.

Machine output is a single JSON document with top-level keys ``model``,
``cones``, ``assumption``, ``divisors`` plus a ``spec_version`` field.
Every number is an integer or an exact ``"p/q"`` string; rendering
followed by :func:`parse_machine` reproduces the document exactly, and
identical configs produce byte-identical output.
"""

import dataclasses
import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import UnionType
from typing import Optional, Union, get_args, get_origin, get_type_hints

from . import seshadri as sesh
from .bundles import CurveInfo, HNFiltration, split_steps, validate_hn
from .config import ProblemConfig, _decode_once, load_json, parse_rational
from .errors import (
    EXIT_OK,
    FlagconesError,
    InternalCheckFailure,
    ParseError,
    ValidationError,
    exit_code_for,
)
from .flags import (
    Basis,
    DivisorClass,
    FlagModel,
    build_model,
    classify_divisor,
    curve_generators,
    pairing_matrix,
    quotient_ranks,
    to_nef,
)

SPEC_VERSION = 1

DIMENSION_NOTE = (
    "fiber and total dimension are derived from the subspace dimension "
    "pattern (standard flag combinatorics); they are bookkeeping, not part "
    "of the cone data"
)


@dataclass(frozen=True)
class ModelSummary:
    """Bundle, filtration and flag data; flag fields are None when only
    the filtration was requested."""

    curve: CurveInfo
    hn_steps: tuple[tuple[int, int], ...]
    rank: int
    degree: int
    slope: Fraction
    semistable: bool
    quotient_slopes: tuple[Fraction, ...]
    quotient_ranks: tuple[int, ...]
    flag_ranks: Optional[tuple[int, ...]] = None
    hn_indices: Optional[tuple[int, ...]] = None
    subspace_dims: Optional[tuple[int, ...]] = None
    quotient_degrees: Optional[tuple[int, ...]] = None
    picard_rank: Optional[int] = None
    fiber_dimension: Optional[int] = None
    total_dimension: Optional[int] = None
    notes: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class DivisorGeneratorInfo:
    name: str
    label: str
    nef: tuple[Fraction, ...]
    pluecker: tuple[Fraction, ...]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ConesSection:
    nef_generators: tuple[DivisorGeneratorInfo, ...]
    curve_generators: tuple[CurveGeneratorInfo, ...]
    pairing_matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        problem = _identity_mismatch(self.pairing_matrix, len(self.curve_generators))
        if problem:
            raise ValidationError(problem)


@dataclass(frozen=True)
class ErrorInfo:
    type: str
    message: str


@dataclass(frozen=True)
class DivisorEntry:
    """Per-divisor result; ``error`` is set instead of ``seshadri`` when
    the class could not be evaluated, and the input is echoed back."""

    name: str
    basis: str
    coords: tuple[Fraction, ...]
    nef_coords: Optional[tuple[Fraction, ...]]
    classification: Optional[str]
    seshadri: Optional[sesh.SeshadriReport]
    error: Optional[ErrorInfo]


@dataclass(frozen=True)
class ReportDocument:
    spec_version: int
    model: ModelSummary
    cones: Optional[ConesSection] = None
    assumption: Optional[sesh.DivisibilityStatus] = None
    divisors: Optional[tuple[DivisorEntry, ...]] = None


# ---------------------------------------------------------------------------
# pipeline


def filtration_from_config(config: ProblemConfig) -> HNFiltration:
    """Filtration of the configured bundle (computed or user-asserted)."""
    steps = config.hn_steps if config.summands is None else split_steps(config.summands)
    return validate_hn(steps)


def model_from_config(config: ProblemConfig) -> FlagModel:
    hn = filtration_from_config(config)
    return build_model(hn, config.flag_ranks)


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


def _model_summary(
    config: ProblemConfig, hn: HNFiltration, model: Optional[FlagModel]
) -> ModelSummary:
    flag_fields = {}
    if model is not None:
        flag_fields = dict(
            flag_ranks=model.spec.quotient_ranks,
            hn_indices=model.spec.hn_indices,
            subspace_dims=model.spec.subspace_dims,
            quotient_degrees=model.quotient_degrees,
            picard_rank=model.picard_rank,
            fiber_dimension=model.fiber_dimension,
            total_dimension=model.total_dimension,
            notes={"dimensions": DIMENSION_NOTE},
        )
    return ModelSummary(
        curve=config.curve,
        hn_steps=hn.step_pairs(),
        rank=hn.n,
        degree=hn.degree,
        slope=hn.slope,
        semistable=hn.is_semistable,
        quotient_slopes=hn.quotient_slopes(),
        quotient_ranks=quotient_ranks(hn),
        **flag_fields,
    )


def _divisor_entry(
    divisor: DivisorClass, model: FlagModel, status: sesh.DivisibilityStatus
) -> DivisorEntry:
    """Evaluate one divisor; the fields reached before a failure are kept."""
    nef_coords = classification = report = error = None
    try:
        converted = to_nef(divisor, model)
        nef_coords = converted.coords
        classification = classify_divisor(converted, model).value
        report = sesh.full_report(converted, model, status)
    except FlagconesError as exc:
        error = ErrorInfo(type(exc).__name__, str(exc))
    return DivisorEntry(
        name=divisor.name,
        basis=divisor.basis.value,
        coords=divisor.coords,
        nef_coords=nef_coords,
        classification=classification,
        seshadri=report,
        error=error,
    )


def run_hn(config: ProblemConfig) -> ReportDocument:
    """Filtration-only report; the flag section of the config is ignored."""
    hn = filtration_from_config(config)
    return ReportDocument(SPEC_VERSION, _model_summary(config, hn, None))


def run_cones(config: ProblemConfig) -> ReportDocument:
    """Model plus cone generators and the (verified) pairing matrix."""
    model = model_from_config(config)
    return ReportDocument(
        SPEC_VERSION, _model_summary(config, model.hn, model), assert_duality(model)
    )


def run(config: ProblemConfig) -> ReportDocument:
    """Full report: model, cones, divisibility condition, per-divisor data.

    Per-divisor failures (non-nef class, wrong coordinate count) are
    recorded in the document instead of aborting, so the geometry
    sections are always present once the model builds.
    """
    model = model_from_config(config)
    status = sesh.check_divisibility(model)
    entries = tuple(_divisor_entry(divisor, model, status) for divisor in config.divisors)
    return ReportDocument(
        SPEC_VERSION,
        _model_summary(config, model.hn, model),
        assert_duality(model),
        status,
        entries,
    )


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
# One codec serves every machine document: it is derived from the dataclass
# fields and their type hints, compiled once per type.  JSON keys are the
# field names unless a field carries ``metadata={"json": key}``, and one keyed
# ``None`` (last, with a default) is neither written nor read.  A type's
# ``emit(value, pad, texts)`` writes what ``json.dumps(..., indent=2)`` would,
# with ``pad`` the newline and indent its value starts on and ``texts`` the
# rationals written in this document; ``decode(data, memo)`` reads it back,
# with ``memo`` the rationals decoded from this document.


def _at(exc: ParseError, step) -> ParseError:
    """``exc`` located one key or index further out; :func:`from_json` strips
    the leading dot."""
    step = f"[{step}]" if isinstance(step, int) else f".{step}"
    return ParseError(exc.message, step + (exc.location or ""))


def _checked(kind: type, value):
    if type(value) is not kind:
        raise ParseError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _emit_fraction(value, pad, texts: dict) -> str:
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


def _emit_fractions(value, pad, texts: dict) -> str:
    """A ``tuple[Fraction, ...]``: every item is looked up in ``texts`` in one
    pass, and only the items missing there go through :func:`_emit_fraction`."""
    found = list(map(texts.get, map(id, value)))
    if None in found:
        found = [text or _emit_fraction(item, pad, texts) for text, item in zip(found, value)]
    return _block("[]", found, pad)


# the JSON text of one value of each other scalar type
_WRITERS = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
}


def _decode_fraction(token) -> Fraction:
    """Inverse of :func:`_emit_fraction`: a token is read by
    :func:`~flagcones.config.parse_rational` and accepted only if it is what
    the writer writes, so ``"4/2"``, ``" 2/14 "``, ``"+3/5"``, ``"3"`` and
    non-ASCII digits are rejected."""
    if type(token) is int:
        return Fraction(token)
    value = parse_rational(token, None)
    if _emit_fraction(value, None, {}) == f'"{token}"':
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


def _decode_notes(value) -> dict[str, str]:
    for key, text in _checked(dict, value).items():
        try:
            _checked(str, text)
        except ParseError as exc:
            raise _at(exc, key) from None
    return value


def _emit_notes(value: dict[str, str], pad: str, texts: dict) -> str:
    text = encode_basestring_ascii
    return _block("{}", [f"{text(key)}: {text(note)}" for key, note in value.items()], pad)


def _block(brackets: str, items: list[str], pad: str) -> str:
    """``items`` one per line, indented one step further than ``pad``; the
    brackets go onto the end items, so each level allocates its text once."""
    if not items:
        return brackets
    inner = pad + "  "
    items[0] = brackets[0] + inner + items[0]
    items[-1] += pad + brackets[1]
    return ("," + inner).join(items)


def _record(cls):
    hints = get_type_hints(cls)
    keyed = [(f.metadata.get("json", f.name), f) for f in dataclasses.fields(cls)]
    fields = [(key, f.name, *_codec(hints[f.name])) for key, f in keyed if key is not None]
    keys = {key for key, *_ in fields}
    writers = [(encode_basestring_ascii(key) + ": ", name, enc) for key, name, enc, _ in fields]

    def emit(value, pad, texts):
        inner = pad + "  "
        items = [key + write(getattr(value, name), inner, texts) for key, name, write in writers]
        return _block("{}", items, pad)

    def decode(value, memo):
        if _checked(dict, value).keys() != keys:
            missing = [key for key, *_ in fields if key not in value]
            if missing:
                raise ParseError("missing key", f".{missing[0]}")
            raise ParseError("unknown key", f".{min(value.keys() - keys)}")
        items = []
        try:
            for key, _, _, dec in fields:
                items.append(dec(value[key], memo))
        except ParseError as exc:
            raise _at(exc, key) from None
        try:
            return cls(*items)
        except ValidationError as exc:
            raise ParseError(str(exc)) from None

    return emit, decode


@functools.cache
def _codec(tp):
    """``(emit, decode)`` for one document type, compiled once.

    Supported: ``Fraction``, ``int``, ``str``, ``bool``, dataclasses,
    ``Optional[X]``, ``tuple[X, ...]``, ``dict[str, str]`` and fixed tuples.
    """
    if tp is Fraction:
        return _emit_fraction, _decode_once(_decode_fraction)
    if tp in _WRITERS:
        write = _WRITERS[tp]
        return (lambda value, pad, texts: write(value)), lambda value, memo: _checked(tp, value)
    if dataclasses.is_dataclass(tp):
        return _record(tp)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        emit, decode = _codec(args[0])
        return (
            lambda value, pad, texts: "null" if value is None else emit(value, pad, texts),
            lambda value, memo: None if value is None else decode(value, memo),
        )
    if origin is dict:
        return _emit_notes, lambda value, memo: _decode_notes(value)
    variadic = args[-1] is Ellipsis
    items = args[:1] if variadic else args
    emitters, decoders = zip(*map(_codec, items))
    if variadic:
        emitters, decoders = itertools.repeat(emitters[0]), itertools.repeat(decoders[0])
    size = None if variadic else len(args)

    def emit(value, pad, texts):
        inner = pad + "  "
        return _block("[]", [write(item, inner, texts) for write, item in zip(emitters, value)], pad)

    if variadic and items == (Fraction,):
        emit = _emit_fractions
    return emit, lambda value, memo: _decode_items(value, decoders, size, memo)


def emit(value, tp=None) -> str:
    """What ``json.dumps(data, indent=2)`` writes for ``data`` the JSON form of
    ``value``, a document of type ``tp`` (default ``type(value)``)."""
    return _codec(tp or type(value))[0](value, "\n", {})


def from_json(cls, data):
    """Checked inverse of :func:`emit` after ``json.loads``; raises a located
    :class:`ParseError`.  Each rational token is decoded once per call."""
    try:
        return _codec(cls)[1](data, {})
    except ParseError as exc:
        raise ParseError(exc.message, (exc.location or "").lstrip(".") or "document") from None


def render_machine(doc: ReportDocument) -> str:
    """Deterministic JSON rendering of a report document."""
    return emit(doc) + "\n"


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


def _render_model(m: ModelSummary) -> list[str]:
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
    return "\n".join(lines) + "\n"
