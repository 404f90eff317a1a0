"""Independent oracle for ``seshadri --machine`` documents.

It recomputes every checked value from the config JSON with its own
arithmetic and shares no code with ``flagcones``:

* the filtration of a split bundle groups summand degrees in descending
  order; ``hn_steps`` are taken as given;
* ``t_i = deg E - deg(step of rank n - r_i)``;
* pluecker ``(c, e)`` is nef ``(c, e + sum c_i t_i)``;
* a nef class ``(a, b)`` has ``lower = min(a, b)``, ``upper = min(a)``,
  and its very-general value follows the constant / divisibility / open
  rule; a class with a negative nef coordinate gets a ``NotNef`` entry.

:func:`check_document` returns a list of problems; empty means the
document is correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

EXIT_OK = 0
EXIT_PRECONDITION = 3


def rational(value) -> Fraction:
    """Exact value of a JSON integer or ``"p/q"`` string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    top, _, bottom = value.partition("/")
    return Fraction(int(top), int(bottom) if bottom else 1)


def encode(value: Fraction):
    """Canonical machine encoding: an integer, else reduced ``"p/q"``."""
    if value.denominator == 1:
        return value.numerator
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Expected:
    """What a correct document says about one config."""

    steps: list[list[int]]
    flag: list[int]
    twists: list[int]
    holds: bool
    divisors: list[dict]
    exit_code: int


def _steps(bundle: dict) -> list[list[int]]:
    if "hn_steps" in bundle:
        return [list(step) for step in bundle["hn_steps"]]
    weights: dict[int, int] = {}
    for summand in bundle["summands"]:
        degree = summand["degree"]
        weights[degree] = weights.get(degree, 0) + summand.get("multiplicity", 1)
    steps = []
    rank = total = 0
    for degree in sorted(weights, reverse=True):
        rank += weights[degree]
        total += degree * weights[degree]
        steps.append([rank, total])
    return steps


def _divisor(spec: dict, twists: list[int], holds: bool) -> dict:
    coords = [rational(v) for v in spec["coords"]]
    front, back = coords[:-1], coords[-1]
    if spec["basis"] == "pluecker":
        back = back + sum(c * t for c, t in zip(front, twists))
    nef = front + [back]
    entry = {
        "name": spec["name"],
        "basis": spec["basis"],
        "coords": [encode(c) for c in coords],
        "nef_coords": [encode(c) for c in nef],
    }
    if any(c < 0 for c in nef):
        entry.update(classification="not_nef", seshadri=None, error_type="NotNef")
        return entry
    upper = min(front)
    lower = min(upper, back)
    if lower == upper:
        general, rule = upper, "constant_case"
    elif holds:
        general, rule = upper, "divisibility_condition"
    else:
        general, rule = None, "open"
    entry.update(
        classification="ample" if all(c > 0 for c in nef) else "nef_not_ample",
        seshadri={
            "lower": encode(lower),
            "upper": encode(upper),
            "global": encode(lower),
            "at_section": encode(lower),
            "general": None if general is None else encode(general),
            "general_rule": rule,
        },
        error_type=None,
    )
    return entry


def expect(config: dict) -> Expected:
    """Expected model data, verdicts and exit code for a config."""
    steps = _steps(config["bundle"])
    n, degree = steps[-1]
    flag = list(config["flag"]["quotient_ranks"])
    by_rank = {rank: deg for rank, deg in steps}
    twists = [degree - by_rank[n - r] for r in flag]
    holds = all(r in by_rank and by_rank[r] % r == 0 for r in flag)
    divisors = [_divisor(spec, twists, holds) for spec in config.get("divisors") or []]
    failing = any(entry["error_type"] is not None for entry in divisors)
    return Expected(
        steps, flag, twists, holds, divisors, EXIT_PRECONDITION if failing else EXIT_OK
    )


def _unit(size: int, position: int) -> list[int]:
    return [1 if j == position else 0 for j in range(size)]


def check_document(config: dict, text: str) -> list[str]:
    """Problems found in a machine document for ``config``; empty if none."""
    return check(expect(config), text)


def check(exp: Expected, text: str) -> list[str]:
    """Problems found in a machine document against precomputed expectations."""
    try:
        return _check(exp, json.loads(text))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable document: {exc!r}"]


def _check(exp: Expected, doc: dict) -> list[str]:
    problems = []

    def same(where: str, actual, expected) -> None:
        if actual != expected:
            problems.append(f"{where}: got {actual!r}, expected {expected!r}")

    same("keys", sorted(doc), ["assumption", "cones", "divisors", "model", "spec_version"])
    same("spec_version", doc["spec_version"], 1)
    model = doc["model"]
    n, degree = exp.steps[-1]
    gamma = len(exp.flag)
    same("model.hn_steps", model["hn_steps"], exp.steps)
    same("model.rank", model["rank"], n)
    same("model.degree", model["degree"], degree)
    same("model.slope", model["slope"], encode(Fraction(degree, n)))
    same("model.flag_ranks", model["flag_ranks"], exp.flag)
    same("model.quotient_degrees", model["quotient_degrees"], exp.twists)
    same("model.picard_rank", model["picard_rank"], gamma + 1)

    cones = doc["cones"]
    same(
        "cones.pairing_matrix",
        cones["pairing_matrix"],
        [_unit(gamma + 1, i) for i in range(gamma + 1)],
    )
    for i, generator in enumerate(cones["nef_generators"]):
        same(f"cones.nef_generators[{i}].nef", generator["nef"], _unit(gamma + 1, i))
        pluecker = _unit(gamma + 1, i)
        if i < gamma:
            pluecker[-1] = -exp.twists[i]
        same(f"cones.nef_generators[{i}].pluecker", generator["pluecker"], pluecker)
    same("cones.nef_generators", len(cones["nef_generators"]), gamma + 1)
    same(
        "cones.curve_generators",
        [c["coords"] for c in cones["curve_generators"]],
        [_unit(gamma + 1, i) for i in range(gamma + 1)],
    )
    same("assumption.holds", doc["assumption"]["holds"], exp.holds)

    entries = doc["divisors"]
    same("divisors", len(entries), len(exp.divisors))
    for k, (entry, want) in enumerate(zip(entries, exp.divisors)):
        where = f"divisors[{k}]"
        for key in ("name", "basis", "coords", "nef_coords", "classification"):
            same(f"{where}.{key}", entry[key], want[key])
        error = entry["error"]
        same(f"{where}.error", None if error is None else error["type"], want["error_type"])
        if want["seshadri"] is None or entry["seshadri"] is None:
            same(f"{where}.seshadri", entry["seshadri"], want["seshadri"])
            continue
        got = {key: entry["seshadri"][key] for key in want["seshadri"]}
        same(f"{where}.seshadri", got, want["seshadri"])
    return problems


def check_digest(digest: dict, text: str) -> list[str]:
    """Problems in a document against a frozen gallery digest."""
    try:
        doc = json.loads(text)
        actual = {
            "hn_steps": doc["model"]["hn_steps"],
            "slope": doc["model"]["slope"],
            "picard_rank": doc["model"]["picard_rank"],
            "assumption_holds": doc["assumption"]["holds"],
        }
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable document: {exc!r}"]
    if actual != digest:
        return [f"digest: got {actual!r}, expected {digest!r}"]
    return []
