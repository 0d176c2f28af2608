"""One set-up measurement in a fresh interpreter; prints seconds.

Times ``import pamdp`` plus either building the env and agent of every
algorithm of a training workload, or loading every checkpoint of an
evaluation workload (``evaluate_checkpoint`` with zero episodes), i.e. all
the work before the first env step. ``run.py`` starts this script several
times per run and reports the median as ``setup_s``.

Usage: python3 setup_probe.py '<json spec>'
"""

import json
import sys
import time


def main(spec: dict) -> float:
    start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    from dataclasses import replace

    from pamdp import envs, harness

    if spec["checkpoints"]:
        for path in spec["checkpoints"]:
            harness.evaluate_checkpoint(path, 0)
    else:
        cfg = harness.load_config(spec["config"])
        for algorithm in spec["algorithms"]:
            run_cfg = replace(cfg, algorithm=algorithm)
            env = envs.make_env(run_cfg.env, run_cfg.env_overrides)
            harness.build_agent(run_cfg, env.spec, harness.seed_stream(spec["seed"]))
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(json.loads(sys.argv[1]))))
