import itertools
import json
import math
import random
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from torusdyn import (
    Scenario,
    ScenarioError,
    builtin_scenarios,
    load_scenario_file,
    polarization_multiplier,
    resolve_scenario,
    save_scenario_file,
    scenario_from_dict,
    scenario_to_dict,
)
from torusdyn.cli import Options, run_command

DOCS = Path(__file__).resolve().parents[1] / "docs" / "scenarios.md"
FAMILY = "mult-by-<m>[-g<G>]"  # the listing's row for the parametric builtins


def documented_forms() -> dict[str, dict]:
    """The json blocks of docs/scenarios.md, by the name each one holds."""
    blocks = re.findall(r"^```json\n(.*?)^```$", DOCS.read_text(), re.M | re.S)
    forms = {form["name"]: form for form in map(json.loads, blocks)}
    assert len(forms) == len(blocks) == 6
    return forms


def listed_names() -> list[str]:
    return [name for name, _ in run_command("scenarios", None, Options()).rows]



def minimal_dict():
    return {
        "name": "tiny",
        "torus": {"g": "1"},
        "endomorphism": {"M": [["2", "0"], ["0", "2"]], "t": ["0", "0"]},
    }


class TestRoundTrip:
    @pytest.mark.parametrize(
        "scenario", builtin_scenarios(), ids=lambda s: s.name
    )
    def test_builtin_round_trip(self, scenario):
        data = scenario_to_dict(scenario)
        # force a genuine trip through JSON text
        reloaded = scenario_from_dict(json.loads(json.dumps(data)))
        assert reloaded == scenario

    def test_file_round_trip(self, tmp_path):
        scenario = resolve_scenario("gaussian-cm")
        path = tmp_path / "gaussian.json"
        save_scenario_file(scenario, path)
        assert load_scenario_file(path) == scenario

    def test_big_integers_survive(self):
        data = minimal_dict()
        big = str(10**40 + 1)
        data["endomorphism"]["M"] = [[big, "0"], ["0", big]]
        scenario = scenario_from_dict(data)
        assert scenario.endomorphism.matrix[0, 0] == 10**40 + 1
        again = scenario_from_dict(scenario_to_dict(scenario))
        assert again == scenario

    def test_five_thousand_digit_entry_round_trips(self, default_int_digit_limit, tmp_path):
        digits = "1" + "0" * 4998 + "7"
        data = minimal_dict()
        data["endomorphism"]["M"] = [[digits, "0"], ["0", "2"]]
        scenario = scenario_from_dict(json.loads(json.dumps(data)))
        assert scenario.endomorphism.matrix[0, 0] == 10**4999 + 7
        dumped = scenario_to_dict(scenario)
        assert dumped["endomorphism"]["M"][0][0] == digits
        assert scenario_from_dict(json.loads(json.dumps(dumped))) == scenario
        path = tmp_path / "big.json"
        save_scenario_file(scenario, path)
        assert load_scenario_file(path) == scenario


class TestSchemaValidation:
    def test_missing_name(self):
        data = minimal_dict()
        del data["name"]
        with pytest.raises(ScenarioError, match="name"):
            scenario_from_dict(data)

    def test_bad_integer_string(self):
        data = minimal_dict()
        data["endomorphism"]["M"][0][0] = "two"
        with pytest.raises(ScenarioError, match=r"endomorphism.M\[0\]\[0\]"):
            scenario_from_dict(data)

    def test_wrong_matrix_shape(self):
        data = minimal_dict()
        data["endomorphism"]["M"] = [["2", "0"]]
        with pytest.raises(ScenarioError, match="expected 2 rows"):
            scenario_from_dict(data)

    def test_bad_rational(self):
        data = minimal_dict()
        data["endomorphism"]["t"] = ["1/0", "0"]
        with pytest.raises(ScenarioError, match=r"endomorphism.t\[0\]"):
            scenario_from_dict(data)

    def test_torus_invariants_revalidated(self):
        data = minimal_dict()
        data["torus"]["J"] = [["0", "1"], ["1", "0"]]  # squares to +I
        with pytest.raises(ScenarioError, match="square to -I"):
            scenario_from_dict(data)

    def test_non_analytic_declaration_rejected(self):
        data = minimal_dict()
        data["torus"]["J"] = [["0", "-1"], ["1", "0"]]
        data["endomorphism"]["M"] = [["1", "1"], ["0", "1"]]
        data["endomorphism"]["analytic"] = True
        with pytest.raises(ScenarioError, match="analytic"):
            scenario_from_dict(data)

    def test_action_validated(self):
        data = minimal_dict()
        data["action"] = [{"U": [["2", "0"], ["0", "2"]], "s": ["0", "0"]}]
        with pytest.raises(ScenarioError, match="unimodular"):
            scenario_from_dict(data)

    def test_subvariety_must_span_a_complex_subtorus(self):
        # on E x E with J = J0 + J0, span(B) is a complex subtorus exactly
        # when rank [B | J B] = rank B (numpy's rank of small integers); B
        # is saturated exactly when its 2 x 2 minors have gcd 1, and a basis
        # that is not is refused first, by the restriction M = 2 I passes to
        rng = random.Random(151)
        j = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
        verdicts = Counter()
        for _ in range(60):
            v = np.array([rng.randint(-3, 3) for _ in range(4)])
            w = np.array([rng.randint(-3, 3) for _ in range(4)])
            if rng.random() < 0.5:
                w = rng.randint(-2, 2) * v + rng.choice((-1, 1)) * (j @ v)
            basis = np.column_stack([v, w])
            if np.linalg.matrix_rank(basis) < 2:
                continue
            pairs = itertools.combinations(range(4), 2)
            minors = [int(v[a] * w[b] - v[b] * w[a]) for a, b in pairs]
            saturated = math.gcd(*minors) == 1
            stable = bool(np.linalg.matrix_rank(np.hstack([basis, j @ basis])) == 2)
            data = {
                "name": "random-basis",
                "torus": {"g": 2, "J": j.tolist(), "S": j.tolist()},
                "endomorphism": {"M": (2 * np.eye(4, dtype=int)).tolist()},
                "subvariety": {"basis": basis.tolist()},
            }
            verdicts[saturated, stable] += 1
            if not saturated:
                with pytest.raises(ScenarioError, match="^subvariety: basis is not saturated"):
                    scenario_from_dict(data)
            elif stable:
                assert scenario_from_dict(data).subvariety.basis.to_lists() == basis.tolist()
            else:
                with pytest.raises(ScenarioError, match="^subvariety basis does not span"):
                    scenario_from_dict(data)
        unsaturated = verdicts[False, True] + verdicts[False, False]
        assert verdicts[True, True] >= 10 and verdicts[True, False] >= 10 and unsaturated >= 10

    def test_factor_invariants(self):
        data = minimal_dict()
        data["factors"] = [{"g": "1", "q": "1"}]
        with pytest.raises(ScenarioError, match="factors"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("name", ["a\nb", "a\r\nb", "a\n", "a\u2028b"])
    def test_line_break_in_name_refused(self, name):
        # the table header prints the name on one '# scenario:' line
        data = minimal_dict()
        data["name"] = name
        with pytest.raises(ScenarioError, match="^name: must not contain a line break$"):
            scenario_from_dict(data)

    def test_deeply_nested_json_refused(self, tmp_path):
        # json.loads gives up on this with RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ScenarioError, match="^scenario file is not valid JSON: "):
            load_scenario_file(path)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int <-> str digit cap"
    )
    def test_json_number_past_the_digit_cap_refused(self, default_int_digit_limit, tmp_path):
        # a plain JSON number, not an integer string: json.loads itself converts it
        path = tmp_path / "long.json"
        text = json.dumps(minimal_dict()).replace('"2"', "1" + "0" * 4999, 1)
        path.write_text(text)
        refusal = "^scenario file holds a JSON number of more than 4300 digits"
        with pytest.raises(ScenarioError, match=refusal):
            load_scenario_file(path)
        assert sys.get_int_max_str_digits() == 4300


class TestDocumentedBuiltins:
    """docs/scenarios.md gives the exact serialized form of every builtin."""

    @pytest.mark.parametrize("name", sorted(documented_forms()))
    def test_block_is_the_serialized_builtin(self, name):
        form = documented_forms()[name]
        scenario = resolve_scenario(name)
        assert form == scenario_to_dict(scenario)
        assert scenario_from_dict(form) == scenario

    def test_listed_names_resolve_to_their_name(self):
        fixed = [name for name in listed_names() if name != FAMILY]
        assert len(fixed) == len(listed_names()) - 1
        for name in fixed:
            assert resolve_scenario(name).name == name

    def test_one_builtin_scenario_and_block_per_listed_row(self):
        # mult-by-2 stands for the family
        names = ["mult-by-2" if name == FAMILY else name for name in listed_names()]
        assert [scenario.name for scenario in builtin_scenarios()] == names
        assert sorted(documented_forms()) == sorted(names)


class TestBuiltins:
    @pytest.mark.parametrize(
        "ref,name",
        [
            ("mult-by-2-g1", "mult-by-2"),
            ("mult-by-02", "mult-by-2"),
            ("mult-by-2-g01", "mult-by-2"),
            ("mult-by-3-g2", "mult-by-3-g2"),
        ],
    )
    def test_mult_by_names(self, ref, name):
        assert resolve_scenario(ref) == resolve_scenario(name)
        assert resolve_scenario(ref).name == name

    @pytest.mark.parametrize(
        "ref,refusal",
        [
            ("mult-by-1", "^mult-by-m needs m >= 2$"),
            ("mult-by-0-g2", "^mult-by-m needs m >= 2$"),
            ("mult-by-2-g0", "^mult-by-m needs g >= 1$"),
            ("mult-by-2-g513", "^mult-by-m needs g <= 512$"),
            ("mult-by-2-g100000", "^mult-by-m needs g <= 512$"),
        ],
    )
    def test_mult_by_refusals(self, ref, refusal):
        with pytest.raises(ScenarioError, match=refusal):
            resolve_scenario(ref)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int <-> str digit cap"
    )
    @pytest.mark.parametrize("name", ["gaussian-cm", "mult-by-2"])
    def test_resolving_a_builtin_lifts_the_digit_cap(self, default_int_digit_limit, name):
        # a builtin is built by scenario_from_dict, as a scenario file is
        resolve_scenario(name)
        assert sys.get_int_max_str_digits() == 0

    def test_mult_by_parametric(self):
        scenario = resolve_scenario("mult-by-3")
        assert scenario.torus.g == 1
        assert scenario.endomorphism.matrix[0, 0] == 3
        big = resolve_scenario("mult-by-2-g2")
        assert big.torus.g == 2

    def test_mult_by_rejects_m_1(self):
        with pytest.raises(ScenarioError):
            resolve_scenario("mult-by-1")

    def test_unknown_name(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            resolve_scenario("no-such-thing")

    def test_empty_reference_refused(self):
        # Path("") names the current directory, which exists
        with pytest.raises(ScenarioError, match="^empty scenario reference$"):
            resolve_scenario("")

    def test_builtin_multipliers(self):
        expected = {
            "mult-by-2": 4,
            "gaussian-cm": 2,
            "silverman-sumdiff": 2,
            "bielliptic-quotient": 9,
            "diagonal-subvariety": 4,
        }
        for name, q in expected.items():
            scenario = resolve_scenario(name)
            assert polarization_multiplier(scenario.endomorphism, scenario.torus) == q

    def test_unpolarizable_builtin(self):
        scenario = resolve_scenario("unpolarizable-1x4")
        assert (
            polarization_multiplier(scenario.endomorphism, scenario.torus) is None
        )

    def test_dimension_consistency_enforced(self):
        with pytest.raises(ValueError, match="does not match"):
            Scenario(
                name="broken",
                torus=resolve_scenario("gaussian-cm").torus,
                endomorphism=resolve_scenario("mult-by-2-g2").endomorphism,
            )
