"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its runtime and enforcing the stated budget.

The criteria are claims of the registry in radicant.verify; each test
states the values the claim must compute.  A1-A3 run their sampled claims
at seeds 1-3.  A4-A8, A10 and A11 read the rows of the session's
`verify --scope all --timings` run at seed 0, and their budget bounds the
claim time of those rows.  A9 has no claim and calls the library."""

import random
import time

from radicant import curve as curve_mod
from radicant import verify
from radicant.field import make_field
from radicant.radical import radical_chain, velu_chain


def report(name: str, seconds: float, elapsed: float, passed: bool):
    status = "PASS" if passed else "FAIL"
    print(f"{name}: {status} ({elapsed:.2f}s / budget {seconds:.0f}s)")
    if passed:
        assert elapsed < seconds, f"{name} exceeded its runtime budget"


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        report(self.name, self.seconds, time.perf_counter() - self.t0, exc_type is None)
        return False


def assert_claim(rep, claim, params, computed):
    assert (rep.claim, rep.params, rep.computed, rep.passed) == (
        claim, params, computed, True
    )


def assert_rows(verify_all, name, seconds, wanted):
    """Every row of `verify_all` whose (claim, params) is listed in
    `wanted` passes with the computed value listed beside it, in the
    listed order, and those rows' claim time stays within the budget."""
    _, payload = verify_all
    keys = [(claim, params) for claim, params, _ in wanted]
    rows = [r for r in payload["reports"] if (r["claim"], r["params"]) in keys]
    got = [(r["claim"], r["params"], r["computed"], r["pass"]) for r in rows]
    passed = got == [(c, p, v, True) for c, p, v in wanted]
    report(name, seconds, sum(r["ms"] for r in rows) / 1000.0, passed)
    assert passed, got


def test_a1_radicand_identity():
    with Budget("A1 radicand identity", 5.0):
        r = verify.radicand_miller_exact(random.Random(1), 1)
        assert_claim(r, "radicand-miller-exact", {"instances": 50, "seed": 1},
                     {"exact": 50, "class_ok": 50})


def test_a2_velu_codomain():
    with Budget("A2 Velu codomain coefficients", 1.0):
        r = verify.velu_codomain_closed_form(random.Random(2), 2)
        assert_claim(r, "velu-codomain-closed-form", {"instances": 20, "seed": 2}, 20)


def test_a3_radical_velu_agreement():
    with Budget("A3 radical/Velu agreement", 60.0):
        r = verify.radical_velu_agreement(random.Random(3), 3)
        assert_claim(r, "radical-velu-agreement", {"instances": 50, "seed": 3}, 50)


def test_a4_composition_cyclicity(verify_all):
    assert_rows(verify_all, "A4 composition kernel cyclic of order 25", 120.0, [
        ("composition-kernel-cyclic-25", {"instances": 10}, 10),
    ])


def test_a5_group_counts_and_indices(verify_all):
    assert_rows(verify_all, "A5 group counts and indices", 30.0, [
        ("sl2-order-25-exhaustive-vs-formula", {"M": 25},
         {"count": 15000, "formula": 15000}),
        *(("rescaled-subgroup-order", {"N": N}, N**3) for N in (4, 5, 6, 7)),
        ("index-rescaled5-gamma1-25", {"N": 5}, 5),
        ("index-gamma1-5-gamma1-25", {"N": 5}, 25),
    ])


def test_a6_normality_and_conjugation(verify_all):
    assert_rows(verify_all, "A6 normality and conjugation congruence", 30.0, [
        *(("gamma1-n2-normal-in-rescaled", {"N": N}, True) for N in (4, 5, 6, 7)),
        ("conjugation-closed-form", {"N": 5, "all_b": True}, True),
    ])


def test_a7_main_theorem(verify_all):
    euler_phi = {5: 4, 6: 2, 7: 6, 8: 4, 9: 6, 10: 4, 11: 10, 12: 4}
    assert_rows(verify_all, "A7 axis subgroup not normal (N = 5..12)", 10.0, [
        ("axis-subgroup-not-normal", {"N": N},
         {"normal": False, "group_order": N * N * phi, "subgroup_order": N * phi,
          "index": N, "witness_validated": True})
        for N, phi in euler_phi.items()
    ])


def test_a8_rescale_operator(verify_all):
    assert_rows(verify_all, "A8 rescale operator order and projection invariance",
                60.0, [("rescale-order-and-projection-invariance", {"instances": 5}, 5)])


def test_a9_sampling_free_property():
    with Budget("A9 zero-sampling radical path vs sampling Velu path", 30.0):
        F = make_field(13)
        b0 = F.el(4)
        steps = 3
        curve_mod.reset_sample_count()
        rad = radical_chain(b0, steps, policy="unique")
        assert curve_mod.sample_count() == 0
        curve_mod.reset_sample_count()
        vel = velu_chain(b0, steps)
        assert curve_mod.sample_count() >= steps
        assert rad.b_values == vel.b_values


def test_a10_subgroup_class_equivalence(verify_all):
    assert_rows(verify_all, "A10 marked-subgroup equivalence (F_11, F_31)", 60.0, [
        ("gamma0-equivalence-exhaustive", {"p": p}, True) for p in (11, 31)
    ])


def test_a11_irreducibility_specialization(verify_all):
    assert_rows(verify_all, "A11 irreducibility of x^5 - b over F_11", 5.0, [
        ("irreducibility-f11-vs-oracle", {"p": 11}, True),
    ])
