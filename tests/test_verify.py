import json
from pathlib import Path

import numpy as np
import pytest

from proxmix import verify
from proxmix.mixtures import comixture_eval
from proxmix.errors import RegistryError


def test_registry_covers_every_in_scope_item():
    for item, suites in verify.IN_SCOPE_MANIFEST.items():
        assert suites, f"{item} maps to no suite"
        for sid in suites:
            assert sid in verify.SUITES, f"{item} -> unknown suite {sid}"


def test_top_level_suites_registered():
    for sid in verify.TOP_LEVEL_SUITES:
        assert sid in verify.SUITES


def test_top_level_suites_are_the_committed_run_order():
    # run_all's ids, in order, are those of the committed case counts; every
    # other registered id is a part of one of them
    path = Path(__file__).resolve().parents[1] / ".github" / "registry_cases.json"
    committed = json.loads(path.read_text())
    assert all(list(counts) == verify.TOP_LEVEL_SUITES for counts in committed.values())
    for sid in set(verify.SUITES) - set(verify.TOP_LEVEL_SUITES):
        assert sid.rpartition("-")[0] in verify.TOP_LEVEL_SUITES


def test_unknown_suite_id():
    with pytest.raises(RegistryError):
        verify.run_suite("prop999")


def test_unknown_scale():
    # a scale is a key of SCALES: a Scale object and an unhashable list are not
    for scale in ("gigantic", verify.SCALES["small"], ["small"]):
        with pytest.raises(RegistryError, match="unknown scale name"):
            verify.run_suite("lemma2", scale=scale)


def test_determinism_identical_digests():
    a = verify.run_suite("lemma3", seed=123, scale="small")
    b = verify.run_suite("lemma3", seed=123, scale="small")
    assert a.digest() == b.digest()
    c = verify.run_suite("lemma3", seed=124, scale="small")
    assert a.digest() != c.digest()


def test_granular_parts_subset_of_family():
    part = verify.run_suite("prop30-i", seed=5, scale="small")
    assert part.all_pass
    assert all(c.note in ("eq", "le") for c in part.cases)


def test_report_serialization():
    rep = verify.run_suite("lemma2", seed=3, scale="small")
    payload = rep.to_json()
    assert payload["suite_id"] == "lemma2"
    assert payload["n_cases"] == len(rep.cases)
    assert payload["all_pass"] == rep.all_pass
    assert isinstance(payload["digest"], str)


def test_projection_suite_passes():
    rep = verify.run_suite("ex-proj", seed=11, scale="small")
    assert rep.all_pass
    assert len(rep.cases) >= 50


def test_prox_formula_suite_has_enough_cases():
    rep = verify.run_suite("prop17", seed=2, scale="default")
    assert rep.all_pass
    assert len(rep.cases) >= 200


def test_gap_bound_suite_passes():
    rep = verify.run_suite("prop30-i", seed=9, scale="small")
    assert rep.all_pass


def test_run_all_subset():
    reports = verify.run_all(seed=4, scale="small", ids=["lemma2", "lemma3"])
    assert [r.suite_id for r in reports] == ["lemma2", "lemma3"]
    assert all(r.all_pass for r in reports)


def _ex12_instances(seed, n):
    """The first ``n`` ``(spec, x)`` instances ``suite_ex12`` draws at ``seed``."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        spec = verify._random_mixture(rng, base_dim=1, n_terms=2, beta_one=True)
        out.append((spec, np.atleast_1d(rng.normal() * 0.5)))
    return out


@pytest.mark.parametrize("seed, index", [(9, 8), (3, 0)])
def test_ex12_ii_gap_lies_within_the_small_gamma_bound(seed, index):
    # the old check |gap| <= 1e-3 failed on both: the gaps 2.85e-3 and
    # 2.34e-3 are 0.9999 and 0.990 of gamma sum_k alpha_k beta_k^2 / 2,
    # and the per-term cross-check, which builds no embedding, agrees
    spec, x = _ex12_instances(seed, index + 1)[index]
    case = verify._ex12_ii_case(index, spec, x)
    assert case.passed and case.note == "within"
    assert 1e-3 < case.got <= case.expected
    res = comixture_eval(spec.with_gamma(2.0**-11), x, verify.OPTS)
    assert res.direct.value == pytest.approx(res.value, rel=1e-12, abs=1e-12)


def test_ex12_ii_is_two_sided():
    spec, x = _ex12_instances(9, 9)[8]
    case = verify._ex12_ii_case(8, spec, x)
    assert not verify._within(("ex12-ii", 8), -2e-3, case.expected, 1e-3).passed
    assert not verify._within(("ex12-ii", 8), case.expected + 2e-3, case.expected, 1e-3).passed


def test_prop10_ii_window_holds_the_displaced_minimizer():
    # at seed 10, case 41 (affine g, gamma 3.56) has its envelope minimizer
    # 6.95 from x, outside the old x +- 6 grid; the window now reaches the
    # displacement bound gamma beta ||L||, and a x +- 40 grid gives -6.687797
    rep = verify.run_suite("prop10", seed=10)
    assert rep.all_pass and len(rep.cases) == 100
    (case,) = [c for c in rep.cases if c.digest == verify._digest("prop10-ii", 41)]
    assert case.got == pytest.approx(-6.6878019, abs=1e-6)
    assert case.expected == pytest.approx(-6.687797, abs=1e-5)
