import json
import pathlib
import time

import pytest

from radicant import verify
from radicant.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChain:
    def test_one_step(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--p", "13", "--b", "4", "--steps", "1")
        assert code == 0
        assert json.loads(out) == {
            "chain": [4, 2],
            "k": 1,
            "p": 13,
            "policy": "canonical",
        }

    def test_large_sylow_field(self, capsys):
        # v_5(p - 1) = 9: the fifth root needs no search over the 5-Sylow subgroup
        code, out, _ = run_cli(capsys, "chain", "--p", "50781251", "--b", "32", "--steps", "1")
        assert code == 0
        assert out.strip() == '{"chain":[32,36931830],"k":1,"p":50781251,"policy":"canonical"}'

    def test_zero_steps(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--p", "13", "--b", "4", "--steps", "0")
        assert code == 0
        assert json.loads(out)["chain"] == [4]

    def test_non_prime_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "chain", "--p", "4", "--b", "2", "--steps", "1")
        assert code == 1
        assert "prime" in err

    def test_degenerate_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "chain", "--p", "13", "--b", "0", "--steps", "1")
        assert code == 2

    def test_no_root_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "chain", "--p", "11", "--b", "3", "--steps", "1")
        assert code == 2

    def test_byte_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "chain", "--p", "13", "--b", "4", "--steps", "5")
        _, out2, _ = run_cli(capsys, "chain", "--p", "13", "--b", "4", "--steps", "5")
        assert out1 == out2

    def test_policy_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "chain", "--p", "41", "--b", "32", "--steps", "1",
            "--policy", "index:2",
        )
        assert code == 0
        assert json.loads(out)["policy"] == "index:2"

    def test_unique_policy_rejected_when_many_roots(self, capsys):
        code, _, err = run_cli(
            capsys, "chain", "--p", "41", "--b", "32", "--steps", "1",
            "--policy", "unique",
        )
        assert code == 2

    @pytest.mark.parametrize("argv,err", [
        # zero steps take no root, yet the policy is parsed
        (("--p", "11", "--b", "2", "--steps", "0", "--policy", "bogus"),
         "error: unknown root policy 'bogus'\n"),
        # b = 2 has no fifth root in F_11: the policy is refused first
        (("--p", "11", "--b", "2", "--steps", "2", "--policy", "bogus"),
         "error: unknown root policy 'bogus'\n"),
        # the message names the policy, not int()'s parse error
        (("--p", "31", "--b", "26", "--steps", "1", "--policy", "index:x"),
         "error: root policy 'index:x' needs an index i >= 0\n"),
        # a negative index is malformed, not out of range
        (("--p", "31", "--b", "26", "--steps", "1", "--policy", "index:-1"),
         "error: root policy 'index:-1' needs an index i >= 0\n"),
    ], ids=["bogus-no-steps", "bogus-no-root", "index-x", "index-negative"])
    def test_malformed_policy_is_a_usage_error(self, capsys, argv, err):
        assert run_cli(capsys, "chain", *argv) == (1, "", err)

    @pytest.mark.parametrize("argv,err", [
        (("--p", "31", "--b", "26", "--steps", "1", "--policy", "index:5"),
         "degenerate instance: step 0: root index 5 out of range (5 roots)\n"),
        (("--p", "31", "--b", "26", "--steps", "1", "--policy", "unique"),
         "degenerate instance: step 0: policy 'unique' needs gcd(5, q-1) = 1; "
         "found 5 roots\n"),
        (("--p", "11", "--b", "2", "--steps", "1", "--policy", "index:0"),
         "degenerate instance: step 0: the radicand has no fifth root in this field\n"),
    ], ids=["index-out-of-range", "unique-many-roots", "no-root"])
    def test_well_formed_policy_without_a_root_exits_2(self, capsys, argv, err):
        # the messages of a policy that parses but finds no usable root
        assert run_cli(capsys, "chain", *argv) == (2, "", err)


class TestVerify:
    def test_groups_scope_n5(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "groups", "--n", "5")
        assert code == 0
        payload = json.loads(out)
        claims = {r["claim"]: r for r in payload["reports"]}
        row = claims["index-rescaled5-gamma1-25"]
        assert row["expected"] == 5 and row["computed"] == 5 and row["pass"]
        assert all(r["pass"] for r in payload["reports"])

    def test_moduli_scope_range(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "moduli", "--n", "5..8")
        assert code == 0
        payload = json.loads(out)
        rows = [r for r in payload["reports"] if r["claim"] == "axis-subgroup-not-normal"]
        assert {r["params"]["N"] for r in rows} == {5, 6, 7, 8}
        assert all(r["pass"] for r in rows)

    def test_determinism_without_timings(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--scope", "groups", "--n", "4")
        _, out2, _ = run_cli(capsys, "verify", "--scope", "groups", "--n", "4")
        assert out1 == out2

    def test_scope_all_seed0_rows(self, verify_all):
        # every row at seed 0, timings aside: a changed draw, instance or
        # value shows here
        code, payload = verify_all
        rows = [{k: v for k, v in r.items() if k != "ms"} for r in payload["reports"]]
        golden = pathlib.Path(__file__).parent / "golden" / "verify_all_seed0.jsonl"
        assert code == 0
        assert rows == [json.loads(line) for line in golden.read_text().splitlines()]

    @pytest.mark.parametrize("scope", ["pairing", "radical", "all"])
    def test_levels_refused_where_they_have_no_effect(self, capsys, scope):
        # only groups and moduli have levels; elsewhere --n used to be ignored
        code, out, err = run_cli(capsys, "verify", "--scope", scope, "--n", "5",
                                 "--seed", "2")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "groups and moduli" in err and repr(scope) in err

    @pytest.mark.parametrize("scope", ["groups", "moduli", "radical"])
    def test_empty_level_range_refused(self, capsys, scope):
        # 7..5 holds no level; it used to run the default levels and exit 0
        code, out, err = run_cli(capsys, "verify", "--scope", scope, "--n", "7..5")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "empty level range '7..5'" in err

    @pytest.mark.parametrize("scope", ["groups", "moduli"])
    def test_run_scope_refuses_no_levels(self, scope):
        # an empty level list is no "default levels" request
        with pytest.raises(ValueError, match="no level given"):
            verify.run_scope(scope, n_values=())

    def test_timings_flag_adds_ms(self, capsys):
        _, out, _ = run_cli(
            capsys, "verify", "--scope", "groups", "--n", "4", "--timings"
        )
        payload = json.loads(out)
        assert all("ms" in r for r in payload["reports"])


class TestBench:
    def test_schema_and_counters(self, capsys):
        # the dual draws nothing, so the count is the sampling comparand's
        # own, the same whatever an earlier call left in the dual cache
        code, out, _ = run_cli(
            capsys, "bench", "--p", "13", "--b", "4", "--steps", "2"
        )
        assert code == 0
        payload = json.loads(out)
        for key in ("radical_ns_per_step", "velu_ns_per_step", "ratio"):
            assert key in payload
        assert payload["radical_torsion_samples"] == 0
        assert payload["velu_torsion_samples"] == 3
        assert payload["identical_chains"] is True

    def test_p_4_mod_5(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--p", "19", "--b", "3", "--steps", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["chain"] == [3, 15]
        assert payload["identical_chains"] is True

    def test_characteristic_5_refused(self, capsys):
        # deg phi = p = 5: the dual is inseparable, so no Velu dual exists
        code, out, err = run_cli(capsys, "bench", "--p", "5", "--b", "1", "--steps", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error: characteristic 5 divides deg phi = 5")
        assert "inseparable" in err

    def test_negative_steps_rejected(self, capsys):
        for command in ("chain", "bench"):
            code, out, err = run_cli(
                capsys, command, "--p", "13", "--b", "4", "--steps", "-2"
            )
            assert code == 1
            assert out == ""
            assert err == "error: steps must be >= 0, got -2\n"

    def test_quadratic_field(self, capsys):
        # the sampling comparand's dual builds over F_{13^2} as over F_p
        code, out, _ = run_cli(
            capsys, "bench", "--p", "13", "--k", "2", "--b", "4", "--steps", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["identical_chains"] is True
        assert payload["radical_torsion_samples"] == 0

    def test_mod5_field_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--p", "31", "--b", "2", "--steps", "1")
        assert code == 2


class TestGoldenOutput:
    # CLI JSON must stay byte-identical across kernel changes: these are
    # the exact stdout bytes, which any faster field or step must reproduce
    @pytest.mark.parametrize("argv, expected", [
        (("chain", "--p", "1048583", "--b", "4", "--steps", "20", "--policy", "unique"),
         '{"chain":[4,809935,939121,317564,981123,515908,954418,143787,117473,'
         '174916,605093,903820,196675,774767,130057,678667,408966,1030064,816520,'
         '380408,993971],"k":1,"p":1048583,"policy":"unique"}\n'),
        (("chain", "--p", "2147483659", "--b", "4", "--steps", "20", "--policy", "unique"),
         '{"chain":[4,2028081937,1890072865,338594786,971114925,529604530,108136781,'
         '388936821,1537745836,1992421817,41869231,1452857206,1333979927,109506679,'
         '269449183,338620996,1391654100,369535460,821789424,831976262,1215001443],'
         '"k":1,"p":2147483659,"policy":"unique"}\n'),
        (("chain", "--p", "2305843009213693907", "--b", "4", "--steps", "20",
          "--policy", "unique"),
         '{"chain":[4,2138752990724870634,2225612409884837815,1145327245576869446,'
         '413552482153445762,1851364380044563644,1556409497987373635,'
         '1116097659156054698,2169268130463508302,1431290785389138390,'
         '310272008576200735,1373931627573010809,957623329571888754,'
         '1022391977558725080,448382514926994570,2045825416750778432,'
         '216245225803012827,2131741974129481518,1808465429542139254,'
         '109408955440289494,575964577568777007],'
         '"k":1,"p":2305843009213693907,"policy":"unique"}\n'),
        (("chain", "--p", "1013", "--k", "2", "--b", "5", "--steps", "20",
          "--policy", "unique"),
         '{"chain":[[5,0],[174,0],[494,0],[20,0],[425,0],[753,0],[187,0],[130,0],'
         '[677,0],[997,0],[482,0],[736,0],[372,0],[408,0],[628,0],[873,0],[436,0],'
         '[676,0],[227,0],[204,0],[181,0]],"k":2,"p":1013,"policy":"unique"}\n'),
        (("pairing", "--p", "1000003", "--b", "4"),
         '{"b":4,"equals_b":true,"k":1,"miller_at_minus_p":4,"p":1000003}\n'),
        (("tnf", "--p", "1000003", "--b", "4"),
         '{"b":4,"curve":[1000000,999999,999999,0,0],"discriminant_nonzero":true,'
         '"k":1,"marked_subgroup":[null,[0,0],[4,16],[4,0],[0,4]],'
         '"normal_form_roundtrip":true,"p":1000003}\n'),
    ], ids=["chain-p20", "chain-p31", "chain-p61", "chain-f1013^2", "pairing", "tnf"])
    def test_stdout_bytes(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, expected, "")


class TestOtherCommands:
    def test_groups_output(self, capsys):
        code, out, _ = run_cli(capsys, "groups", "--n", "5")
        assert code == 0
        payload = json.loads(out)["groups"][0]
        assert payload["sl2_order_mod_n2"] == 15000
        assert payload["rescaled_order"] == 125
        assert payload["index"] == 5
        assert payload["gamma1_n2_normal"] is True

    def test_groups_range_output(self, capsys):
        # members are generated from their congruences, not filtered out of SL2
        t0 = time.perf_counter()
        code, out, _ = run_cli(capsys, "groups", "--n", "2..7")
        assert time.perf_counter() - t0 < 2.0
        assert code == 0
        assert out == (
            '{"groups":['
            '{"N":2,"gamma1_n2_normal":true,"gamma1_n2_order":4,"index":2,'
            '"rescale_matrix":[3,3,0,3],"rescaled_order":8,"sl2_order_mod_n2":48},'
            '{"N":3,"gamma1_n2_normal":true,"gamma1_n2_order":9,"index":3,'
            '"rescale_matrix":[7,8,0,4],"rescaled_order":27,"sl2_order_mod_n2":648},'
            '{"N":4,"gamma1_n2_normal":true,"gamma1_n2_order":16,"index":4,'
            '"rescale_matrix":[13,15,0,5],"rescaled_order":64,"sl2_order_mod_n2":3072},'
            '{"N":5,"gamma1_n2_normal":true,"gamma1_n2_order":25,"index":5,'
            '"rescale_matrix":[21,24,0,6],"rescaled_order":125,"sl2_order_mod_n2":15000},'
            '{"N":6,"gamma1_n2_normal":true,"gamma1_n2_order":36,"index":6,'
            '"rescale_matrix":[31,35,0,7],"rescaled_order":216,"sl2_order_mod_n2":31104},'
            '{"N":7,"gamma1_n2_normal":true,"gamma1_n2_order":49,"index":7,'
            '"rescale_matrix":[43,48,0,8],"rescaled_order":343,"sl2_order_mod_n2":115248}'
            ']}\n'
        )

    def test_groups_level_one(self, capsys):
        code, out, _ = run_cli(capsys, "groups", "--n", "1")
        assert code == 0
        assert json.loads(out)["groups"] == [{
            "N": 1, "gamma1_n2_normal": True, "gamma1_n2_order": 1, "index": 1,
            "rescale_matrix": [0, 0, 0, 0], "rescaled_order": 1, "sl2_order_mod_n2": 1,
        }]

    @pytest.mark.parametrize("level", ["0", "-3"])
    def test_groups_invalid_level(self, capsys, level):
        code, out, err = run_cli(capsys, "groups", "--n", level)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "at least 1" in err

    def test_groups_empty_level_range(self, capsys):
        # 7..5 used to print {"groups":[]} and exit 0
        code, out, err = run_cli(capsys, "groups", "--n", "7..5")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "empty level range '7..5'" in err

    def test_groups_resource_ceiling_exits_4(self, capsys):
        # level 40 needs 1600 * 40^3 conjugations, above modgroup.WORK_CEILING:
        # a resource ceiling, not a usage error
        code, out, err = run_cli(capsys, "groups", "--n", "40")
        assert code == 4
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "enumeration bound" in err

    def test_groups_level_8_within_the_work_ceiling(self, capsys):
        # modulus 64 exceeded the former modulus ceiling of 50
        code, out, _ = run_cli(capsys, "groups", "--n", "8")
        assert code == 0
        assert json.loads(out)["groups"][0]["sl2_order_mod_n2"] == 196608

    def test_pairing_output(self, capsys):
        code, out, _ = run_cli(capsys, "pairing", "--p", "11", "--b", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["miller_at_minus_p"] == 2
        assert payload["equals_b"] is True
        assert payload["class_matches"] is True

    def test_tnf_output(self, capsys):
        code, out, _ = run_cli(capsys, "tnf", "--p", "11", "--b", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["curve"] == [10, 9, 9, 0, 0]
        assert payload["normal_form_roundtrip"] is True
        assert payload["marked_subgroup"] == [None, [0, 0], [2, 4], [2, 0], [0, 2]]

    @pytest.mark.parametrize("argv, expected", [
        (("pairing", "--p", "1000003", "--b", "4"),
         '{"b":4,"equals_b":true,"k":1,"miller_at_minus_p":4,"p":1000003}'),
        (("tnf", "--p", "1000003", "--b", "4"),
         '{"b":4,"curve":[1000000,999999,999999,0,0],"discriminant_nonzero":true,'
         '"k":1,"marked_subgroup":[null,[0,0],[4,16],[4,0],[0,4]],'
         '"normal_form_roundtrip":true,"p":1000003}'),
    ], ids=["pairing", "tnf"])
    def test_marked_point_checks_need_no_enumeration(self, capsys, argv, expected):
        # the order-5 check on (0,0) must not enumerate the ~10^6 curve points
        t0 = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        assert out.strip() == expected

    def test_tnf_degenerate(self, capsys):
        code, _, _ = run_cli(capsys, "tnf", "--p", "11", "--b", "1")
        assert code == 2

    def test_pretty_output(self, capsys):
        code, out, _ = run_cli(capsys, "pairing", "--p", "11", "--b", "2", "--pretty")
        assert code == 0 and out.startswith("{\n")

    def test_usage_error(self, capsys):
        assert run_cli(capsys, "chain", "--p", "13")[0] == 1
