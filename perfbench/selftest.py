"""Fast tests that every check accepts a right output and rejects a wrong one.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Each test builds a small correct
output with the program, confirms the check passes it, then breaks one
thing (a perturbed term, swapped means, a wrong rank, an altered trial
value) and confirms the check reports it.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import tensordec.cli as cli  # noqa: E402
from tensordec.moment_learners import hmm_exact_moments, hmm_learn_from_moments  # noqa: E402


def _kind(workload, name):
    return next(k for k in workload.kinds if k.name == name)


class DecompositionChecks(unittest.TestCase):
    def setUp(self):
        self.truth = cli.random_decomposition((6, 5, 4), 3, seed=1)
        self.clean = cli.synthesize(self.truth).data
        self.factors = [np.array(f) for f in self.truth.factors]
        self.weights = np.array(self.truth.weights)

    def test_accepts_truth(self):
        self.assertIsNone(checks.check_cp(self.factors, self.weights, self.clean, 3, 1e-8))

    def test_rejects_one_perturbed_term(self):
        self.factors[1][:, 2] = np.roll(self.factors[1][:, 2], 1)
        self.assertIn("residual", checks.check_cp(self.factors, self.weights, self.clean, 3, 1e-8))

    def test_rejects_wrong_rank(self):
        reason = checks.check_cp([f[:, :2] for f in self.factors], self.weights[:2],
                                 self.clean, 3, 1e-8)
        self.assertIn("2 terms", reason)

    def test_rejects_non_unit_columns(self):
        self.factors[0][:, 0] *= 2.0
        self.weights[0] /= 2.0
        self.assertIn("norms", checks.check_cp(self.factors, self.weights, self.clean, 3, 1e-8))

    def test_rejects_non_orthonormal_vectors(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 3)))
        self.assertIsNone(checks.check_orthonormal(q))
        q[:, 1] = (q[:, 0] + q[:, 1]) / np.linalg.norm(q[:, 0] + q[:, 1])
        self.assertIsNotNone(checks.check_orthonormal(q))


class MatchChecks(unittest.TestCase):
    def setUp(self):
        self.truth = cli.random_decomposition((6, 6, 6), 4, seed=2)
        self.found, _ = cli.jennrich_decompose(cli.synthesize(self.truth),
                                               cli.JennrichConfig(rank=4, seed=2))
        self.rep = cli.match_terms(self.found, self.truth)

    def check(self, perm, errors, max_error):
        norm = float(np.linalg.norm(cli.synthesize(self.truth).data))
        return checks.check_match(perm, errors, max_error,
                                  (self.found.factors, self.found.weights),
                                  (self.truth.factors, self.truth.weights), norm, 1e-6)

    def test_accepts_program_matching(self):
        self.assertIsNone(self.check(self.rep.permutation, self.rep.per_term_errors,
                                     self.rep.max_error))

    def test_rejects_swapped_pair(self):
        perm = list(self.rep.permutation)
        perm[0], perm[1] = perm[1], perm[0]
        self.assertIn("recomputed", self.check(perm, self.rep.per_term_errors,
                                               self.rep.max_error))

    def test_rejects_non_bijection(self):
        perm = list(self.rep.permutation)
        perm[0] = perm[1]
        self.assertIn("bijection", self.check(perm, self.rep.per_term_errors,
                                              self.rep.max_error))

    def test_rejects_wrong_error(self):
        errors = list(self.rep.per_term_errors)
        errors[2] += 1e-3
        self.assertIsNotNone(self.check(self.rep.permutation, errors, max(errors)))


class LearnChecks(unittest.TestCase):
    def test_gmm_rejects_swapped_means(self):
        params = cli.gmm_orthogonal_params(8, 3, seed=3)
        samples = cli.gmm_sample(params, 20_000, seed=3)
        r = cli.gmm_learn(samples, 3, seed=3, truth=params)
        self.assertIsNone(checks.check_gmm(r.means, params.means, r.permutation,
                                           r.mean_errors, 0.25))
        swapped = r.means[:, [1, 0, 2]]
        self.assertIn("permutation", checks.check_gmm(swapped, params.means, r.permutation,
                                                      r.mean_errors, 0.25))
        moved = r.means.copy()
        moved[0, 0] += 0.5
        self.assertIn("above", checks.check_gmm(moved, params.means, r.permutation,
                                                r.mean_errors, 0.25))

    def test_hmm_rejects_broken_chain(self):
        p = cli.hmm_random_params(6, 3, seed=workloads.HMM_SEED, noise_scale=0.1)
        moments = hmm_exact_moments(p)
        r = hmm_learn_from_moments(moments, 3, truth=p)

        def check(obs, trans, stat):
            return checks.check_hmm(obs, trans, stat, (p.observation_means, p.transition),
                                    r.permutation, r.observation_errors,
                                    r.transition_errors, 0.1)

        self.assertIsNone(check(r.observation_means, r.transition, r.stationary))
        bad = r.transition.copy()
        bad[0, 0] += 0.05
        self.assertIn("stochastic", check(r.observation_means, bad, r.stationary))
        self.assertIn("stationary", check(r.observation_means, r.transition, r.stationary * 1.1))
        swapped = r.transition[:, [1, 0, 2]]
        self.assertIn("transition", check(r.observation_means, swapped, r.stationary))


class LabChecks(unittest.TestCase):
    def setUp(self):
        # the lab kinds close each learn_lab round and read no earlier output
        self.kinds = workloads.learn_lab(4).kinds[3:]
        self.out = [kind.call([], kind.instances[0]) for kind in self.kinds]

    def test_accepts_program_outputs(self):
        for kind, r in zip(self.kinds, self.out):
            self.assertIsNone(kind.check(r, [], kind.instances[0]), kind.name)

    def test_rejects_altered_trial_value(self):
        for kind, r in zip(self.kinds, self.out):
            r.values = r.values.copy()
            r.values[0] *= 1.001
            self.assertIn("trial 0", kind.check(r, [], kind.instances[0]), kind.name)

    def test_rejects_altered_quantile(self):
        r = self.out[0]
        summary = r.summary()
        thresholds = [c / 64 for c in summary["c_grid"]]
        summary["quantiles"]["q50"] *= 1.0001
        self.assertIn("q50", checks.check_trial_summary(
            r.values, summary["quantiles"], summary["fraction_below"], thresholds))


class WorkloadChecks(unittest.TestCase):
    def test_only_the_auto_rank_call_has_a_known_fault(self):
        w = workloads.decompose_small(0)
        self.assertEqual([k.name for k in w.kinds if k.known_symptom], ["auto_rank_noisy"])
        kind = _kind(w, "auto_rank_noisy")
        result = kind.call([], kind.instances[0])
        self.assertEqual(kind.check(result, [], kind.instances[0]), kind.known_symptom)

    def test_other_failures_of_the_known_fault_kind_are_unexpected(self):
        def fail(earlier, inst):
            raise ValueError("another fault")

        symptom = workloads.Kind("known", [None], lambda e, i: None,
                                 lambda r, e, i: workloads.AUTO_RANK_SYMPTOM,
                                 workloads.AUTO_RANK_SYMPTOM)
        other = workloads.Kind("other", [None], fail, lambda r, e, i: None,
                               workloads.AUTO_RANK_SYMPTOM)
        *_, failed, unexpected, _ = run.timed_phase(workloads.Workload([symptom, other]), 1e-9)
        self.assertEqual(failed, 2)
        self.assertEqual(list(unexpected), ["other"])
        self.assertIn("another fault", unexpected["other"])

    def test_benchmark_json_lists_every_traced_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            listed = [m["name"] for m in json.load(fh)["per_layer"]]
        names = list(tracing.layer_metrics(tracing.Tracer(), 2))
        names += [f"import.{m}.self_s" for m in tracing.IMPORT_SELF]
        names += [f"import.{m}.cumulative_s" for m in tracing.IMPORT_CUMULATIVE]
        lat = {k: [] for kinds in workloads.KIND_NAMES.values() for k in kinds}
        names += list(tracing.kind_latencies(lat))
        self.assertEqual(sorted(listed), sorted(names))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        self.assertEqual({n: tracing.unit_of(n) for n in names}, units)


if __name__ == "__main__":
    unittest.main()
