"""Seeded input generator for the benchmark workloads.

Everything here emits JSON text only and imports nothing from
``flagcones``: a change to the package's own random generators cannot
change a workload.  The same ``(workload, seed)`` always gives the same
texts, byte for byte.

Workloads:

* ``large-g39``: one split bundle with 40 distinct summand degrees, all 39
  profile ranks flagged, and 2000 divisors of 40 ``"p/q"`` coordinates,
  half in the nef basis and half in the pluecker basis, some not nef.
* ``many-small``: 500 configs per pass; half split bundles, half given by
  ``hn_steps``; ranks <= 14, gamma 1..4, 0..3 divisors each in mixed bases,
  about half of them not nef.
* ``cli-gallery``: the 13 frozen gallery configs under ``gallery/``, in a
  seeded order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

GALLERY_DIR = Path(__file__).resolve().parent / "gallery"

WORKLOADS = ("large-g39", "many-small", "cli-gallery")

LARGE_SUMMANDS = 40
LARGE_DIVISORS = 2000
SMALL_CONFIGS = 500
SMALL_MAX_RANK = 14


@dataclass(frozen=True)
class Item:
    """One generated problem: a label and the config text the program reads.

    ``divisors`` is the number of divisor entries in the config; ``path``
    is set for configs that exist as files (the gallery).
    """

    label: str
    text: str
    divisors: int
    path: Path | None = None


def _ratio(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _positive(rng: random.Random, top: int = 50) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, 9))


def _nef_target(rng: random.Random, gamma: int, nef: bool) -> list[Fraction]:
    """Nef-basis coordinates ``(a_1..a_gamma, b)``; one entry negative unless ``nef``.

    ``b`` falls below ``min(a)`` about half the time, so both the constant
    case and the divisibility / open cases occur.
    """
    front = [_positive(rng) for _ in range(gamma)]
    smallest = min(front)
    if rng.random() < 0.5:
        back = smallest * Fraction(rng.randint(0, 9), 10)
    else:
        back = smallest + _positive(rng, 10)
    coords = front + [back]
    if not nef:
        j = rng.randrange(gamma + 1)
        coords[j] = -_positive(rng)
    return coords


def _in_basis(coords: list[Fraction], twists: list[int], basis: str) -> list[Fraction]:
    """Nef coordinates ``(a, b)`` rewritten as pluecker ``(a, b - sum a_i t_i)``."""
    if basis == "nef":
        return coords
    front = coords[:-1]
    return front + [coords[-1] - sum(a * t for a, t in zip(front, twists))]


def _dump(config: dict) -> str:
    return json.dumps(config, indent=1) + "\n"


def large_g39(seed: int) -> list[Item]:
    rng = random.Random(f"large-g39:{seed}")
    degrees = rng.sample(range(-60, 61), LARGE_SUMMANDS)
    ascending = sorted(degrees)
    ranks = list(range(LARGE_SUMMANDS - 1, 0, -1))
    # Quotient of rank r of a split bundle: the r summands of smallest degree.
    twists = [sum(ascending[:r]) for r in ranks]
    divisors = []
    for k in range(LARGE_DIVISORS):
        basis = "nef" if k % 2 == 0 else "pluecker"
        nef = rng.random() >= 0.125
        coords = _in_basis(_nef_target(rng, len(ranks), nef), twists, basis)
        divisors.append(
            {"name": f"D{k}", "basis": basis, "coords": [_ratio(c) for c in coords]}
        )
    config = {
        "curve": {"genus": rng.randint(0, 5), "label": "C"},
        "bundle": {"summands": [{"degree": d, "multiplicity": 1} for d in degrees]},
        "flag": {"quotient_ranks": ranks},
        "divisors": divisors,
    }
    return [Item("large-g39", _dump(config), len(divisors))]


def _small_pieces(rng: random.Random, split: bool) -> list[tuple[int, int]]:
    """Graded pieces ``(rank, degree)`` with strictly decreasing slopes."""
    count = rng.randint(2, 5)
    while True:
        piece_ranks = [rng.randint(1, 3) for _ in range(count)]
        if sum(piece_ranks) <= SMALL_MAX_RANK:
            break
    pieces = []
    if split:
        for r, d in zip(piece_ranks, sorted(rng.sample(range(-8, 9), count), reverse=True)):
            pieces.append((r, d * r))
        return pieces
    bound = None
    for r in piece_ranks:
        if bound is None:
            degree = rng.randint(-6, 12)
        else:
            # Largest degree whose slope stays strictly below the previous one.
            ceiling = -((-bound.numerator * r) // bound.denominator)
            degree = ceiling - 1 - rng.randint(0, 4)
        pieces.append((r, degree))
        bound = Fraction(degree, r)
    return pieces


def _small_config(rng: random.Random, split: bool) -> dict:
    pieces = _small_pieces(rng, split)
    n = sum(r for r, _ in pieces)
    # Profile ranks n - rank_j are the tail sums of piece ranks; the quotient
    # of that rank has the tail sum of piece degrees as its degree.
    tails = {}
    rank = degree = 0
    for r, d in reversed(pieces[1:]):
        rank += r
        degree += d
        tails[rank] = degree
    gamma = rng.randint(1, min(4, len(tails)))
    flag = sorted(rng.sample(sorted(tails), gamma), reverse=True)
    twists = [tails[r] for r in flag]
    divisors = []
    for k in range(rng.randint(0, 3)):
        basis = rng.choice(("nef", "pluecker"))
        coords = _in_basis(_nef_target(rng, gamma, rng.random() < 0.5), twists, basis)
        divisors.append(
            {
                "name": f"D{k}",
                "basis": basis,
                "coords": [int(c) if c.denominator == 1 else _ratio(c) for c in coords],
            }
        )
    if split:
        bundle = {
            "summands": [
                {"degree": d // r, "multiplicity": r} for r, d in rng.sample(pieces, len(pieces))
            ]
        }
    else:
        steps = []
        rank = degree = 0
        for r, d in pieces:
            rank += r
            degree += d
            steps.append([rank, degree])
        bundle = {"hn_steps": steps}
    return {
        "curve": {"genus": rng.randint(0, 3), "label": "X"},
        "bundle": bundle,
        "flag": {"quotient_ranks": flag},
        "divisors": divisors,
    }


def many_small(seed: int) -> list[Item]:
    rng = random.Random(f"many-small:{seed}")
    items = []
    for k in range(SMALL_CONFIGS):
        config = _small_config(rng, split=k % 2 == 0)
        items.append(Item(f"small-{k}", _dump(config), len(config["divisors"])))
    return items


def gallery_digests() -> dict:
    """Frozen digests of the gallery configs, keyed by fixture name."""
    return json.loads((GALLERY_DIR / "digests.json").read_text(encoding="utf-8"))


def cli_gallery(seed: int) -> list[Item]:
    rng = random.Random(f"cli-gallery:{seed}")
    names = sorted(gallery_digests())
    rng.shuffle(names)
    items = []
    for name in names:
        path = GALLERY_DIR / (name.replace("/", "_") + ".json")
        text = path.read_text(encoding="utf-8")
        items.append(Item(name, text, len(json.loads(text)["divisors"]), path))
    return items


def generate(workload: str, seed: int) -> list[Item]:
    """The items of one workload for one seed."""
    makers = {"large-g39": large_g39, "many-small": many_small, "cli-gallery": cli_gallery}
    return makers[workload](seed)
