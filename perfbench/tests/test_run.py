"""Tests of the benchmark's own logic (no build, no runs).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (the benchmark script is not a package)


def fake_templates():
    return {
        name: f'[meta]\nname = "{name}"\n\n[sim]\nscan_rate = 10.0\nrng_seed = 1\n'
        for name in run.SERVE_PRESETS
    }


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond_it(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(99), 50.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(999), 90.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_summary_states_the_sample_count_and_tail(self):
        text = run.summary([float(i) for i in range(1, 101)])
        self.assertIn("n=100", text)
        self.assertIn("p90 90", text)
        self.assertNotIn(" p", run.summary([1.0, 2.0, 3.0]))

    def test_nearest_rank_percentile(self):
        values = [float(i) for i in range(1, 11)]
        self.assertEqual(run.percentile(values, 50), 5.0)
        self.assertEqual(run.percentile(values, 90), 9.0)
        self.assertEqual(run.percentile(values, 100), 10.0)


class MetricNames(unittest.TestCase):
    def setUp(self):
        text = (BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8")
        self.bench = json.loads(text)

    def check(self, trace, key):
        printed = run.result_metrics({}, trace)
        declared = {m["name"]: m["unit"] for m in self.bench[key]}
        self.assertEqual(list(printed), list(declared))
        self.assertEqual({n: m["unit"] for n, m in printed.items()}, declared)

    def test_untraced_run_prints_the_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_traced_run_prints_the_per_layer_metrics(self):
        self.check(1, "per_layer")

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]), run.WORKLOADS)


class ServeMix(unittest.TestCase):
    def test_generator_is_deterministic_for_a_fixed_seed(self):
        templates = fake_templates()
        self.assertEqual(run.serve_requests(5, templates), run.serve_requests(5, templates))

    def test_seed_changes_the_specs_but_not_the_hit_pattern(self):
        templates = fake_templates()
        lines_a, picks_a = run.serve_requests(5, templates)
        lines_b, picks_b = run.serve_requests(6, templates)
        self.assertNotEqual(lines_a, lines_b)
        self.assertEqual(picks_a, picks_b)

    def test_seed_moves_presets_but_not_the_work_of_the_misses(self):
        def presets(seed):
            return [spec.split('"')[1] for spec in run.serve_catalogue(seed, fake_templates())]

        def misses_per_preset(seed):
            lines, picks = run.serve_requests(seed, fake_templates())
            hits, _ = run.lru_model(picks, run.SERVE_MAX_ENTRIES)
            names = [json.loads(line)["spec"].split('"')[1] for line in lines]
            return sorted(name for name, hit in zip(names, hits) if not hit)

        self.assertNotEqual(presets(5), presets(6))
        self.assertNotEqual(run.serve_requests(5, fake_templates())[0], run.serve_requests(6, fake_templates())[0])
        self.assertEqual(misses_per_preset(5), misses_per_preset(6))
        self.assertEqual(set(presets(5)), set(run.SERVE_PRESETS))

    def test_catalogue_outgrows_the_store_and_mixes_hits_and_misses(self):
        _, picks = run.serve_requests(1, fake_templates())
        hits, stats = run.lru_model(picks, run.SERVE_MAX_ENTRIES)
        self.assertEqual(len(set(picks)) > run.SERVE_MAX_ENTRIES, True)
        self.assertGreater(stats["evictions"], 0)
        self.assertGreater(stats["hits"], 2 * stats["misses"])
        self.assertEqual(stats["hits"], sum(hits))

    def test_catalogue_entries_are_distinct_specs(self):
        catalogue = run.serve_catalogue(3, fake_templates())
        self.assertEqual(len(set(catalogue)), run.SERVE_CATALOGUE)

    def test_lru_model_evicts_least_recently_used(self):
        hits, stats = run.lru_model([1, 2, 1, 3, 2, 1], capacity=2)
        # 3 evicts 2 (1 was touched after it); 2 then evicts 1
        self.assertEqual(hits, [False, False, True, False, False, False])
        self.assertEqual(stats["evictions"], 3)
        self.assertEqual(stats["entries"], 2)


class SpecEditing(unittest.TestCase):
    def test_set_toml_key_edits_only_the_named_section(self):
        text = "[sim]\nmax_time = 1.0\n\n[study.detection]\nmax_time = 3000.0\n"
        edited = run.set_toml_key(text, "study.detection", "max_time", "800.0")
        self.assertEqual(edited, "[sim]\nmax_time = 1.0\n\n[study.detection]\nmax_time = 800.0\n")

    def test_set_toml_key_rejects_a_missing_key(self):
        with self.assertRaises(run.BenchError):
            run.set_toml_key("[sim]\nseeds = 1\n", "sim", "rng_seed", "2")


if __name__ == "__main__":
    unittest.main()
