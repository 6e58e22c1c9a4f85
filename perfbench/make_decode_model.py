"""Trains the decode workload's model and writes it to ``perfbench/decode_model.npz``.

    python3 perfbench/make_decode_model.py

The model is the CGAEW model that the program's ablation evaluation trains
for the synth-3 fold at protocol seed 0: ``SynthSpec.default()`` with seed 0,
``ModelPolicy.fit`` on maps synth-1 and synth-2 (its own 10% validation
split), at most 10 epochs with early-stopping patience 3. Training it takes
about a minute, so the decode workload loads the saved weights in its set-up
instead. Re-run this script when the checkpoint format or the model changes.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import run


def main() -> int:
    run.ensure_steady_env(sys.argv[1:])
    run.import_program()
    from urbanav import synth
    from urbanav.training import ModelPolicy, kept_epoch

    from workloads import DECODE_MODEL_CONFIG, DECODE_MODEL_PATH, MODEL_SEED, TRAIN_MAPS

    maps, corpus = synth.generate(replace(synth.SynthSpec.default(), seed=MODEL_SEED))
    policy = ModelPolicy(DECODE_MODEL_CONFIG)
    policy.fit(corpus.for_maps(TRAIN_MAPS), maps, MODEL_SEED)
    policy.model.save(DECODE_MODEL_PATH)
    kept = kept_epoch(policy.logs)
    print(f"trained {len(policy.logs)} epochs, kept epoch {kept}: {policy.logs[kept - 1]}; "
          f"wrote {os.path.relpath(DECODE_MODEL_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
