import json

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


class TestBuiltins:
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
