import dataclasses
import json
import math

import numpy as np
import pytest

from msrcpspr.instance import (
    ParseError,
    ValidationError,
    default_extension,
    load_extension,
    parse_psplib,
    read_psplib,
    scale_reliability,
    serialize_psplib,
    skill_coverage_issues,
    validate,
)

CHAIN5_SM = """\
************************************************************************
jobs (incl. supersource/sink ):  5
RESOURCES
  - renewable                 :  1   R
************************************************************************
PRECEDENCE RELATIONS:
jobnr.    #modes  #successors   successors
   1        1          1           2
   2        1          1           3
   3        1          1           4
   4        1          1           5
   5        1          0
************************************************************************
REQUESTS/DURATIONS:
jobnr. mode duration  R 1
------------------------------------------------------------------------
   1      1     0       0
   2      1     2       1
   3      1     3       1
   4      1     4       1
   5      1     0       0
************************************************************************
"""


class TestParsePsplib:
    def test_j10_shape(self, data_dir):
        partial = read_psplib(data_dir / "j10.sm")
        assert partial.job_count == 12
        assert partial.renewable_count == 4
        assert partial.durations[0] == 0 and partial.durations[-1] == 0
        assert partial.successors[-1] == ()
        assert len([j for j in range(2, 12)]) == 10  # executables

    def test_chain_has_exactly_four_arcs(self):
        partial = parse_psplib(CHAIN5_SM)
        assert partial.precedence_matrix().sum() == 4

    def test_self_loop_is_cycle_error(self):
        bad = CHAIN5_SM.replace(
            "   3        1          1           4",
            "   3        1          1           3",
        )
        with pytest.raises(ValidationError, match="DAG"):
            parse_psplib(bad)

    def test_longer_cycle_detected(self):
        bad = CHAIN5_SM.replace(
            "   4        1          1           5",
            "   4        1          2           5   2",
        )
        with pytest.raises(ValidationError, match="cycle"):
            parse_psplib(bad)

    def test_missing_section_named(self):
        with pytest.raises(ParseError, match="PRECEDENCE"):
            parse_psplib(CHAIN5_SM.replace("PRECEDENCE RELATIONS:", "PRECEDENCE RELATION"))

    def test_malformed_header_names_line(self):
        broken = CHAIN5_SM.replace("jobnr.    #modes  #successors   successors", "nonsense")
        with pytest.raises(ParseError, match="line"):
            parse_psplib(broken)

    def test_wrong_successor_count(self):
        bad = CHAIN5_SM.replace(
            "   2        1          1           3",
            "   2        1          2           3",
        )
        with pytest.raises(ParseError, match="declares 2 successors"):
            parse_psplib(bad)

    @pytest.mark.parametrize("job", [0, 6])
    def test_precedence_row_outside_job_range(self, job):
        # The extra row sits right after the row of job 5, on line 13.
        bad = CHAIN5_SM.replace(
            "   5        1          0\n",
            f"   5        1          0\n{job:4d}        1          0\n",
        )
        with pytest.raises(ParseError, match=rf"precedence row for job {job} outside 1\.\.5") as exc:
            parse_psplib(bad)
        assert exc.value.line == 13

    @pytest.mark.parametrize("job", [0, 6])
    def test_request_row_outside_job_range(self, job):
        # The extra row sits right after the row of job 5, on line 22.
        bad = CHAIN5_SM.replace(
            "   5      1     0       0\n",
            f"   5      1     0       0\n{job:4d}      1     2       1\n",
        )
        with pytest.raises(ParseError, match=rf"request row for job {job} outside 1\.\.5") as exc:
            parse_psplib(bad)
        assert exc.value.line == 22

    def test_roundtrip_identity(self, data_dir):
        for name in ("toy5.sm", "j10.sm", "j20.sm"):
            partial = read_psplib(data_dir / name)
            again = parse_psplib(serialize_psplib(partial))
            assert again == partial

    def test_degree_bookkeeping(self, data_dir):
        for name in ("toy5.sm", "j10.sm", "j20.sm"):
            partial = read_psplib(data_dir / name)
            mat = partial.precedence_matrix()
            assert mat.sum(axis=0).sum() == mat.sum(axis=1).sum()


class TestLoadExtension:
    def test_full_mastery_matrix(self):
        partial = parse_psplib(CHAIN5_SM)
        sidecar = {
            "skill_count": 3,
            "resources": [
                {
                    "id": k,
                    "skills": [1, 2, 3],
                    "cost_per_skill": {"1": 10, "2": 20, "3": 30},
                    "disruption_rate": 0.5,
                    "retrieval_rate": 0.5,
                    "service_rate": 9.0,
                }
                for k in range(1, 5)
            ],
            "requirements": [{"activity": 2, "skill": 1, "count": 1}],
        }
        instance = load_extension(partial, sidecar)
        assert instance.mastery_matrix.all()
        assert skill_coverage_issues(instance) == ()

    def test_pigeonhole_warning(self):
        partial = parse_psplib(CHAIN5_SM)
        sidecar = {
            "skill_count": 2,
            "resources": [
                {"id": 1, "skills": [1, 2], "cost_per_skill": {"1": 10, "2": 10},
                 "disruption_rate": 0.5, "retrieval_rate": 0.5, "service_rate": 9.0},
                {"id": 2, "skills": [1], "cost_per_skill": {"1": 10},
                 "disruption_rate": 0.5, "retrieval_rate": 0.5, "service_rate": 9.0},
            ],
            "requirements": [{"activity": 3, "skill": 2, "count": 2}],
        }
        instance = load_extension(partial, sidecar)
        issues = skill_coverage_issues(instance)
        assert len(issues) == 1 and "skill 2" in issues[0]

    def test_unknown_key_rejected(self):
        partial = parse_psplib(CHAIN5_SM)
        with pytest.raises(ValidationError, match="unknown key"):
            load_extension(partial, {"skill_count": 1, "resources": [], "requirements": [], "extra": 1})

    def test_missing_keys_listed_in_order(self):
        # The message must not depend on set iteration order (PYTHONHASHSEED).
        partial = parse_psplib(CHAIN5_SM)
        sidecar = {"skill_count": 1, "resources": [{"id": 1}], "requirements": []}
        missing = (
            "missing key(s) ['cost_per_skill', 'disruption_rate', 'retrieval_rate', "
            "'service_rate', 'skills'] in resource entry {'id': 1}"
        )
        with pytest.raises(ValidationError) as exc:
            load_extension(partial, sidecar)
        assert str(exc.value) == missing
        sidecar["resources"][0].update(extra=0, bonus=0)
        with pytest.raises(ValidationError, match=r"^unknown key\(s\) \['bonus', 'extra'\] and "):
            load_extension(partial, sidecar)

    def test_missing_rates_rejected(self):
        partial = parse_psplib(CHAIN5_SM)
        sidecar = {
            "skill_count": 1,
            "resources": [
                {"id": 1, "skills": [1], "cost_per_skill": {"1": 10},
                 "retrieval_rate": 0.5, "service_rate": 9.0}
            ],
            "requirements": [],
        }
        with pytest.raises(ValidationError, match="disruption_rate"):
            load_extension(partial, sidecar)

    def test_requirement_on_dummy_rejected(self):
        partial = parse_psplib(CHAIN5_SM)
        sidecar = {
            "skill_count": 1,
            "resources": [
                {"id": 1, "skills": [1], "cost_per_skill": {"1": 10},
                 "disruption_rate": 0.5, "retrieval_rate": 0.5, "service_rate": 9.0}
            ],
            "requirements": [{"activity": 1, "skill": 1, "count": 1}],
        }
        with pytest.raises(ValidationError, match="non-executable"):
            load_extension(partial, sidecar)

    @pytest.mark.parametrize("count", [2, 0])
    def test_second_requirement_entry_rejected(self, data_dir, count):
        # A repeated (activity, skill) is rejected whatever its count, so
        # neither entry silently wins.
        partial = read_psplib(data_dir / "toy5.sm")
        sidecar = json.loads((data_dir / "toy5_skills.json").read_text(encoding="utf-8"))
        sidecar["requirements"].append({"activity": 2, "skill": 1, "count": count})
        with pytest.raises(ValidationError, match="second requirement entry for activity 2 skill 1"):
            load_extension(partial, sidecar)

    def test_cost_must_cover_mastered_skills(self):
        partial = parse_psplib(CHAIN5_SM)
        sidecar = {
            "skill_count": 2,
            "resources": [
                {"id": 1, "skills": [1, 2], "cost_per_skill": {"1": 10},
                 "disruption_rate": 0.5, "retrieval_rate": 0.5, "service_rate": 9.0}
            ],
            "requirements": [],
        }
        with pytest.raises(ValidationError, match="cost"):
            load_extension(partial, sidecar)

    @pytest.mark.parametrize("key", ["01", " 1", "+1", 1])
    def test_second_cost_for_one_skill_rejected(self, data_dir, key):
        # Every key is read as a skill number, so "1" and ``key`` are one
        # skill: the resource gives it two costs, and neither may win.
        partial = read_psplib(data_dir / "toy5.sm")
        sidecar = json.loads((data_dir / "toy5_skills.json").read_text(encoding="utf-8"))
        sidecar["resources"][0]["cost_per_skill"][key] = 999
        with pytest.raises(ValidationError, match="resource 1 gives skill 1 more than one cost"):
            load_extension(partial, sidecar)

    @pytest.mark.parametrize(
        "old,new,key",
        [
            ('"cost_per_skill": {"1": 100}', '"cost_per_skill": {"1": 999, "1": 100}', "'1'"),
            ('"skill_count": 2,', '"skill_count": 2, "skill_count": 3,', "'skill_count'"),
        ],
        ids=["nested", "top-level"],
    )
    def test_repeated_json_key_rejected(self, data_dir, old, new, key):
        # json alone keeps the later of two equal keys in one object, so
        # the earlier value would be dropped without a word.
        partial = read_psplib(data_dir / "toy5.sm")
        text = (data_dir / "toy5_skills.json").read_text(encoding="utf-8")
        assert text.count(old) == 1
        with pytest.raises(ValidationError, match=f"sidecar repeats key {key} in one object"):
            load_extension(partial, text.replace(old, new))


class TestDefaultExtension:
    def test_j10_adaptation_shape(self, data_dir):
        partial = read_psplib(data_dir / "j10.sm")
        sidecar = default_extension(partial)
        assert sidecar["skill_count"] == 4
        assert len(sidecar["resources"]) == 4
        for res in sidecar["resources"]:
            assert res["disruption_rate"] == 0.5
            assert res["retrieval_rate"] == 0.5
            assert len(res["skills"]) == 2
        assert all(req["count"] <= 2 for req in sidecar["requirements"])

    def test_bundled_sidecars_match_generator(self, data_dir):
        for name in ("j10", "j20"):
            partial = read_psplib(data_dir / f"{name}.sm")
            bundled = json.loads((data_dir / f"{name}_skills.json").read_text())
            assert bundled == default_extension(partial)

    def test_no_renewable_type_rejected(self, data_dir):
        partial = read_psplib(data_dir / "j10.sm")
        bare = dataclasses.replace(
            partial, renewable_count=0, requests=tuple(() for _ in partial.requests)
        )
        with pytest.raises(ValueError, match="no renewable resource type"):
            default_extension(bare)

    def test_deterministic(self, data_dir):
        partial = read_psplib(data_dir / "j10.sm")
        assert default_extension(partial) == default_extension(partial)

    def test_capacity_covers_balanced_load(self, data_dir):
        partial = read_psplib(data_dir / "j10.sm")
        instance = load_extension(partial, default_extension(partial))
        total = int(instance.requirement_matrix.sum())
        balanced = -(-total // len(instance.resources))
        for res in instance.resources:
            rel = res.reliability
            critical = rel.retrieval_rate * rel.service_rate / (rel.retrieval_rate + rel.disruption_rate)
            assert critical > balanced


class TestValidate:
    def test_valid_instances(self, corpus, j10):
        for name, instance in corpus.items():
            assert validate(instance) == [], name
        assert validate(j10) == []

    def test_zero_disruption_rate_flagged(self, toy5):
        from msrcpspr.instance import ProjectInstance, ResourceProfile
        from msrcpspr.queueing import ReliabilityParams

        res = toy5.resources[0]
        broken = ResourceProfile(res.id, res.skills, res.cost_per_skill,
                                 ReliabilityParams(0.0, 0.5, 6.0))
        instance = ProjectInstance(
            activities=toy5.activities,
            precedence=toy5.precedence,
            resources=(broken,) + toy5.resources[1:],
            skill_count=toy5.skill_count,
        )
        assert any("disruption_rate must be > 0" in v for v in validate(instance))

    def test_cycle_flagged(self, toy5):
        from msrcpspr.instance import ProjectInstance

        prec = toy5.precedence.copy()
        prec[2, 1] = True  # 3 -> 2 closes 2 -> ... -> 3 -> 2? make direct: 2->3 and 3->2
        prec[1, 2] = True
        instance = ProjectInstance(
            activities=toy5.activities,
            precedence=prec,
            resources=toy5.resources,
            skill_count=toy5.skill_count,
        )
        assert any("not a DAG" in v for v in validate(instance))

    def test_overdemand_flagged(self, toy5):
        from msrcpspr.instance import Activity, ProjectInstance

        acts = list(toy5.activities)
        acts[2] = Activity(id=3, duration=acts[2].duration, skill_requirements=((1, 3), (2, 2)))
        instance = ProjectInstance(
            activities=tuple(acts),
            precedence=toy5.precedence,
            resources=toy5.resources,
            skill_count=toy5.skill_count,
        )
        assert any("demands 5 resources" in v for v in validate(instance))

    def test_topological_order_exists_for_accepted(self, corpus):
        from msrcpspr.instance import topological_order

        for instance in corpus.values():
            succ = [list(np.flatnonzero(instance.precedence[u])) for u in range(instance.n_nodes)]
            order, stuck = topological_order(succ)
            assert stuck == ()
            assert sorted(order) == list(range(instance.n_nodes))
            position = {u: i for i, u in enumerate(order)}
            for u in range(instance.n_nodes):
                for v in succ[u]:
                    assert position[u] < position[v]


class TestScaleReliability:
    def test_scales_only_named_parameter(self, toy5):
        scaled = scale_reliability(toy5, "retrieval", 1.4)
        for before, after in zip(toy5.resources, scaled.resources):
            assert after.reliability.retrieval_rate == pytest.approx(
                1.4 * before.reliability.retrieval_rate
            )
            assert after.reliability.disruption_rate == before.reliability.disruption_rate
            assert after.reliability.service_rate == before.reliability.service_rate

    def test_rejects_bad_input(self, toy5):
        with pytest.raises(ValueError):
            scale_reliability(toy5, "speed", 1.4)
        with pytest.raises(ValueError):
            scale_reliability(toy5, "retrieval", 0.0)

    @pytest.mark.parametrize("multiplier", [math.nan, math.inf])
    def test_rejects_non_finite_multiplier(self, toy5, multiplier):
        with pytest.raises(ValueError, match=f"multiplier must be finite and > 0, got {multiplier}"):
            scale_reliability(toy5, "disruption", multiplier)
