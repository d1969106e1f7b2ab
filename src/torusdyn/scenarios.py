"""Scenario files: JSON descriptions of a torus, an endomorphism, and extras.

Matrices are row-major arrays of integer strings and rationals are "p/q"
strings, so arbitrarily large values survive the trip through JSON.  Every
type invariant is re-validated on load with field-level error messages.
The builtin scenarios that ship with the package are written as the
fields of such files and built by the same loader.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .fixpoint import periodic_subvariety_map
from .lattice import (
    ComplexTorus,
    LatticeEndomorphism,
    SimpleFactorSpec,
    TorsionPoint,
    is_analytic,
)
from .linalg import IntegerMatrix, smith_normal_form
from .quotient import GroupAction


class ScenarioError(ValueError):
    """Scenario file violates the schema; message names the offending field."""


@dataclass(frozen=True)
class SubvarietySpec:
    """Invariant subtorus data: saturated basis, periodic translate, period."""

    basis: IntegerMatrix
    translate: TorsionPoint
    period: int


@dataclass(frozen=True)
class Scenario:
    name: str
    torus: ComplexTorus
    endomorphism: LatticeEndomorphism
    analytic: bool = False
    factors: tuple[SimpleFactorSpec, ...] | None = None
    action: GroupAction | None = None
    subvariety: SubvarietySpec | None = None

    def __post_init__(self):
        if self.torus.rank != self.endomorphism.rank:
            raise ValueError("endomorphism dimension does not match the torus")
        if self.analytic and not is_analytic(self.endomorphism, self.torus):
            raise ValueError(
                "endomorphism declared analytic but M J != J M"
            )
        if self.action is not None and self.action.rank != self.torus.rank:
            raise ValueError("group action dimension does not match the torus")
        if self.subvariety is not None:
            sub = self.subvariety
            # the cached restriction that subvariety reads refuses a basis
            # that is not saturated or not invariant, and a translate that
            # is not periodic, here when the scenario is built
            try:
                periodic_subvariety_map(
                    self.endomorphism, sub.basis, sub.translate, sub.period
                )
            except ValueError as exc:
                raise ValueError(f"subvariety: {exc}") from exc
            # J B must lie in the span of B: with U B V = D the Smith form
            # of B, the rows k.. of U J B vanish (J's numerators suffice)
            basis, J = sub.basis, self.torus.complex_structure
            if J is not None:
                image = (smith_normal_form(basis).U * J * basis).to_lists()
                if any(any(row) for row in image[basis.cols :]):
                    raise ValueError(
                        "subvariety basis does not span a complex subtorus"
                        " (J B is not in the span of B)"
                    )


# ---------------------------------------------------------------------------
# parsing


def lift_int_digit_limit() -> None:
    """Turn off the interpreter's cap on int <-> str digits (Python >= 3.10.7).

    Counts and matrix entries are exact and can run past the default 4,300
    digits; CSV output and scenario JSON must carry them losslessly.
    """
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def _parse_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise ScenarioError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ScenarioError(f"{where}: invalid integer {value!r}") from None
    raise ScenarioError(f"{where}: expected an integer string, got {type(value).__name__}")


def _parse_fraction(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ScenarioError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ScenarioError(f"{where}: invalid rational {value!r}") from None
    raise ScenarioError(f"{where}: expected a 'p/q' string, got {type(value).__name__}")


def _parse_rows(value, where: str, rows: int, cols: int) -> list[list]:
    if not isinstance(value, list) or len(value) != rows:
        raise ScenarioError(f"{where}: expected {rows} rows")
    table = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise ScenarioError(f"{where}[{i}]: expected {cols} entries")
        table.append(row)
    return table


def _parse_integer_matrix(value, where: str, rows: int, cols: int) -> IntegerMatrix:
    table = _parse_rows(value, where, rows, cols)
    return IntegerMatrix.from_rows(
        [
            [_parse_int(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(table)
        ]
    )


def _parse_rational_matrix(
    value, where: str, rows: int, cols: int
) -> tuple[IntegerMatrix, int]:
    """Integer numerators over the lcm of the entries' denominators."""
    table = [
        [_parse_fraction(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(_parse_rows(value, where, rows, cols))
    ]
    d = math.lcm(*(x.denominator for row in table for x in row))
    numerators = [[x.numerator * (d // x.denominator) for x in row] for row in table]
    return IntegerMatrix.from_rows(numerators), d


def _parse_vector(value, where: str, length: int) -> tuple[Fraction, ...]:
    if not isinstance(value, list) or len(value) != length:
        raise ScenarioError(f"{where}: expected a vector of length {length}")
    return tuple(_parse_fraction(x, f"{where}[{i}]") for i, x in enumerate(value))


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario from parsed JSON."""
    lift_int_digit_limit()
    if not isinstance(data, dict):
        raise ScenarioError("top level: expected an object")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("name: expected a nonempty string")
    # the table header prints it on the one '# scenario:' line
    if name.splitlines() != [name]:
        raise ScenarioError("name: must not contain a line break")

    torus_data = data.get("torus")
    if not isinstance(torus_data, dict):
        raise ScenarioError("torus: expected an object")
    g = _parse_int(torus_data.get("g"), "torus.g")
    if g < 1:
        raise ScenarioError("torus.g: must be >= 1")
    n = 2 * g
    J, d = None, 1
    if torus_data.get("J") is not None:
        J, d = _parse_rational_matrix(torus_data["J"], "torus.J", n, n)
    S = None
    if torus_data.get("S") is not None:
        S = _parse_integer_matrix(torus_data["S"], "torus.S", n, n)
    try:
        torus = ComplexTorus(g, complex_structure=J, riemann_form=S, complex_denominator=d)
    except ValueError as exc:
        raise ScenarioError(f"torus: {exc}") from exc

    endo_data = data.get("endomorphism")
    if not isinstance(endo_data, dict):
        raise ScenarioError("endomorphism: expected an object")
    matrix = _parse_integer_matrix(endo_data.get("M"), "endomorphism.M", n, n)
    translation = (Fraction(0),) * n
    if endo_data.get("t") is not None:
        translation = _parse_vector(endo_data["t"], "endomorphism.t", n)
    analytic = endo_data.get("analytic", False)
    if not isinstance(analytic, bool):
        raise ScenarioError("endomorphism.analytic: expected a boolean")
    endo = LatticeEndomorphism(matrix, translation)

    factors = None
    if data.get("factors") is not None:
        if not isinstance(data["factors"], list) or not data["factors"]:
            raise ScenarioError("factors: expected a nonempty list")
        parsed = []
        for i, item in enumerate(data["factors"]):
            if not isinstance(item, dict):
                raise ScenarioError(f"factors[{i}]: expected an object")
            try:
                parsed.append(
                    SimpleFactorSpec(
                        g=_parse_int(item.get("g"), f"factors[{i}].g"),
                        q=_parse_int(item.get("q"), f"factors[{i}].q"),
                        multiplicity=_parse_int(item.get("r", 1), f"factors[{i}].r"),
                    )
                )
            except ValueError as exc:
                raise ScenarioError(f"factors[{i}]: {exc}") from exc
        factors = tuple(parsed)

    action = None
    if data.get("action") is not None:
        if not isinstance(data["action"], list) or not data["action"]:
            raise ScenarioError("action: expected a nonempty list")
        elements = []
        for i, item in enumerate(data["action"]):
            if not isinstance(item, dict):
                raise ScenarioError(f"action[{i}]: expected an object")
            linear = _parse_integer_matrix(item.get("U"), f"action[{i}].U", n, n)
            shift = (Fraction(0),) * n
            if item.get("s") is not None:
                shift = _parse_vector(item["s"], f"action[{i}].s", n)
            elements.append(LatticeEndomorphism(linear, shift))
        try:
            action = GroupAction(tuple(elements))
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    subvariety = None
    if data.get("subvariety") is not None:
        sub = data["subvariety"]
        if not isinstance(sub, dict):
            raise ScenarioError("subvariety: expected an object")
        basis_rows = sub.get("basis")
        if not isinstance(basis_rows, list) or not basis_rows:
            raise ScenarioError("subvariety.basis: expected a matrix")
        first = basis_rows[0]
        if not isinstance(first, list) or not first:
            raise ScenarioError("subvariety.basis: expected a matrix")
        basis = _parse_integer_matrix(
            basis_rows, "subvariety.basis", n, len(first)
        )
        translate = TorsionPoint.reduce(
            _parse_vector(sub.get("translate", ["0"] * n), "subvariety.translate", n)
        )
        period = _parse_int(sub.get("period", 1), "subvariety.period")
        subvariety = SubvarietySpec(basis=basis, translate=translate, period=period)

    try:
        return Scenario(
            name=name,
            torus=torus,
            endomorphism=endo,
            analytic=analytic,
            factors=factors,
            action=action,
            subvariety=subvariety,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    """Lossless JSON form: integers and rationals rendered as strings."""
    lift_int_digit_limit()

    def int_matrix(m: IntegerMatrix) -> list[list[str]]:
        return [[str(x) for x in m.row(i)] for i in range(m.rows)]

    def vector(v) -> list[str]:
        return [str(x) for x in v]

    torus: dict = {"g": str(scenario.torus.g)}
    J, d = scenario.torus.complex_structure, scenario.torus.complex_denominator
    if J is not None:
        torus["J"] = [[str(Fraction(x, d)) for x in J.row(i)] for i in range(J.rows)]
    if scenario.torus.riemann_form is not None:
        torus["S"] = int_matrix(scenario.torus.riemann_form)
    endo: dict = {
        "M": int_matrix(scenario.endomorphism.matrix),
        "t": vector(scenario.endomorphism.translation),
    }
    if scenario.analytic:
        endo["analytic"] = True
    data: dict = {"name": scenario.name, "torus": torus, "endomorphism": endo}
    if scenario.factors is not None:
        data["factors"] = [
            {"g": str(f.g), "q": str(f.q), "r": str(f.multiplicity)}
            for f in scenario.factors
        ]
    if scenario.action is not None:
        data["action"] = [
            {"U": int_matrix(e.matrix), "s": vector(e.translation)}
            for e in scenario.action.elements
        ]
    if scenario.subvariety is not None:
        data["subvariety"] = {
            "basis": int_matrix(scenario.subvariety.basis),
            "translate": vector(scenario.subvariety.translate),
            "period": str(scenario.subvariety.period),
        }
    return data


def load_scenario_file(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # json.loads raises RecursionError on deeply nested arrays or objects
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    except ValueError as exc:
        # the only other ValueError: a JSON number past the int <-> str digit cap
        raise ScenarioError(
            f"scenario file holds a JSON number of more than {sys.get_int_max_str_digits()} "
            "digits, the interpreter's int <-> str limit; write large integers as strings"
        ) from exc
    return scenario_from_dict(data)


def save_scenario_file(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


# ---------------------------------------------------------------------------
# builtin library

def _cm_product(g: int) -> dict:
    """Torus fields of g square CM elliptic curves with the product Riemann form.

    On each curve multiplication by i and the Riemann form are the same
    integer block [[0, -1], [1, 0]], so both are the standard symplectic
    form: -1 at (2k, 2k + 1) and 1 at (2k + 1, 2k).
    """
    blocks = [[0] * (2 * g) for _ in range(2 * g)]
    for k in range(0, 2 * g, 2):
        blocks[k][k + 1] = -1
        blocks[k + 1][k] = 1
    return {"g": g, "J": blocks, "S": blocks}


def _diagonal(values: list[int]) -> list[list[int]]:
    return [[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)]


def _multiplication(m: int, g: int) -> dict:
    """Fields of multiplication by m on g square CM curves."""
    if m < 2:
        raise ScenarioError("mult-by-m needs m >= 2")
    if g < 1:
        raise ScenarioError("mult-by-m needs g >= 1")
    if g > 512:  # before the 2g x 2g fields are built
        raise ScenarioError("mult-by-m needs g <= 512")
    return {
        "torus": _cm_product(g),
        "endomorphism": {"M": _diagonal([m] * (2 * g)), "analytic": True},
        "factors": [{"g": 1, "q": m * m, "r": g}],
    }


# The builtins.  Each is the scenario file its fields spell out, and
# resolve_scenario builds it with scenario_from_dict as it would load that
# file; docs/scenarios.md shows each serialized.  A fixed builtin's entry
# is name -> (description, fields), and its fields, all but the name, are
# built only when it is resolved.
MULT_BY = (
    "mult-by-<m>[-g<G>]",
    "multiplication by m on a product of G CM curves (q = m^2)",
)
_MULT_PATTERN = re.compile(r"^mult-by-(\d+)(?:-g(\d+))?$")
BUILTINS = {
    "gaussian-cm": (
        "multiplication by 1+i on the square CM curve (degree 2, q = 2)",
        lambda: {
            "torus": _cm_product(1),
            "endomorphism": {"M": [[1, -1], [1, 1]], "analytic": True},
            "factors": [{"g": 1, "q": 2}],
        },
    ),
    "silverman-sumdiff": (
        "sum/difference map on E x E (degree 4, q = 2)",
        lambda: {
            "torus": _cm_product(2),
            "endomorphism": {
                "M": [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]],
                "analytic": True,
            },
        },
    ),
    "unpolarizable-1x4": (
        "[1] x [4] on surface x curve (degree 16, no multiplier)",
        lambda: {
            "torus": _cm_product(3),
            "endomorphism": {"M": _diagonal([1, 1, 1, 1, 4, 4]), "analytic": True},
        },
    ),
    "bielliptic-quotient": (
        "[3] on E x E with a free order-2 affine action",
        lambda: {
            **_multiplication(3, 2),
            "action": [
                {"U": _diagonal([1, 1, 1, 1])},
                {"U": _diagonal([1, 1, -1, -1]), "s": ["1/2", 0, 0, 0]},
            ],
        },
    ),
    "diagonal-subvariety": (
        "[2] x [2] on E x E restricted to the diagonal curve",
        lambda: {
            **_multiplication(2, 2),
            "subvariety": {"basis": [[1, 0], [0, 1], [1, 0], [0, 1]]},
        },
    ),
}


def builtin_scenarios() -> list[Scenario]:
    """One scenario per listed builtin, mult-by-2 standing for its family."""
    return [resolve_scenario(name) for name in ("mult-by-2", *BUILTINS)]


def resolve_scenario(ref: str) -> Scenario:
    """Builtin name or path to a JSON scenario file; a builtin name wins."""
    if not ref:
        # Path("") is the current directory, which exists
        raise ScenarioError("empty scenario reference")
    match = _MULT_PATTERN.match(ref)
    if match:
        # the name's digits may run past the default int <-> str cap
        lift_int_digit_limit()
        m, g = int(match[1]), int(match[2] or 1)
        ref = f"mult-by-{m}" if g == 1 else f"mult-by-{m}-g{g}"
        fields = _multiplication(m, g)
    elif ref in BUILTINS:
        fields = BUILTINS[ref][1]()
    elif Path(ref).exists():
        return load_scenario_file(ref)
    else:
        raise ScenarioError(
            f"unknown scenario {ref!r}: not a builtin name and no such file"
        )
    return scenario_from_dict({"name": ref, **fields})
