"""Record the golden corpora from the engine of this checkout.

    python3 bench/record_golden.py

The benchmark fails every fixed-point item whose output differs from these
files, so re-record only when the engine's bit-exact behaviour is meant to
change, and say so in the change that does it.
"""

from __future__ import annotations

import numpy as np

import golden
import inputs
from srcpath import use_source_tree


def record_n16(lf) -> dict:
    corpus, classes = inputs.n16_corpus(np.random.default_rng(golden.N16_CORPUS_SEED),
                                        golden.N16_BLOCKS)
    plan = lf.build_plan(16)
    cfg = lf.FixedConfig()
    words = np.zeros((len(corpus), 2, 16), dtype=np.uint32)
    device_flag = np.zeros((len(corpus), 2), dtype=bool)
    engine_flag = np.zeros((len(corpus), 2), dtype=bool)
    for i, vec in enumerate(corpus):
        for s, select in enumerate(golden.SELECTS):
            sel = lf.TransformSelect(select)
            done = lf.run_device(lf.MemoryImage(tuple(int(x) for x in vec), sel), plan, cfg)
            result = lf.execute(plan, vec.astype(np.float64) / cfg.fmt.scale, sel, cfg)
            words[i, s] = done.output_words
            device_flag[i, s] = done.overflow
            engine_flag[i, s] = result.overflow
    for cls in dict.fromkeys(inputs.N16_CLASSES):
        rows = [i for i, c in enumerate(classes) if c == cls]
        print(f"n16 {cls:10s} device overflow share {device_flag[rows].mean():.2f}, "
              f"engine {engine_flag[rows].mean():.2f}")
    return dict(inputs=corpus, classes=np.array(classes), words=words,
                device_flag=device_flag, engine_flag=engine_flag)


def record_n64(lf) -> dict:
    shapes, classes = inputs.n64_corpus(np.random.default_rng(golden.N64_CORPUS_SEED),
                                        golden.N64_PER_CLASS)
    plan = lf.build_plan(64)
    grid = golden.QSWEEP_GRID
    shape = (len(shapes), len(grid), 2)
    raws = np.zeros(shape + (2, 64), dtype=np.int32)
    overflow = np.zeros(shape, dtype=bool)
    max_rel = np.zeros(shape)
    entries = np.zeros(shape, dtype=np.int32)
    for i, unit in enumerate(shapes):
        for c, (frac, rounding, acc) in enumerate(grid):
            cfg = lf.FixedConfig(lf.QFormat(16, frac), rounding, acc)
            samples = unit * float(1 << (15 - frac))
            for s, select in enumerate(golden.SELECTS):
                sel = lf.TransformSelect(select)
                result = lf.execute(plan, samples, sel, cfg)
                report = lf.quantization_report(plan, samples, cfg, sel)
                raws[i, c, s, 0] = result.real_raw
                if result.imag_raw is not None:
                    raws[i, c, s, 1] = result.imag_raw
                overflow[i, c, s] = result.overflow
                max_rel[i, c, s] = report.max_rel_error
                entries[i, c, s] = len(report.entries)
    for cls in inputs.N64_CLASSES:
        rows = [i for i, c in enumerate(classes) if c == cls]
        by_acc = {acc: overflow[rows][:, [c for c, g in enumerate(grid) if g[2] == acc]].mean()
                  for acc in (32, 18)}
        print(f"n64 {cls:10s} engine overflow share: 32-bit acc {by_acc[32]:.2f}, "
              f"18-bit acc {by_acc[18]:.2f}")
    return dict(inputs=shapes, classes=np.array(classes),
                grid=np.array([[f, ("half-away", "half-even", "truncate").index(r), a]
                               for f, r, a in grid]),
                raws=raws, overflow=overflow, max_rel=max_rel, entries=entries)


def main() -> None:
    use_source_tree()
    import laurentfft as lf

    golden.GOLDEN_DIR.mkdir(exist_ok=True)
    np.savez_compressed(golden.N16_PATH, **record_n16(lf))
    np.savez_compressed(golden.N64_PATH, **record_n64(lf))
    for path in (golden.N16_PATH, golden.N64_PATH):
        print(f"wrote {path.name}: {path.stat().st_size} bytes")


if __name__ == "__main__":
    main()
