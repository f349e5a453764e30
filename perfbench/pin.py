"""Recompute ``expected.json``, the pinned answers the benchmark checks.

    python3 perfbench/pin.py

Run it only when the inputs change on purpose (a new dataset generator
or scale, or a new query): the pinned answers are what makes a wrong answer visible, so
re-pinning after a change to the algorithms would hide the bug it is
there to catch.  Answers come from the one-shot API on the serial plan.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import enumerate_maximal_krcores, find_maximum_krcore, krcore_statistics  # noqa: E402
from repro.datasets.registry import default_predicate, load_dataset  # noqa: E402

from checks import EXPECTED_PATH, digest  # noqa: E402
from workloads import (  # noqa: E402
    DATASET_SEED, SERIAL, SERVE_K, SERVE_PERMILLE, EnumGowalla, MaxDblp, ServeEdits,
    warm_answers,
)


def main() -> int:
    pinned = {}
    for wl in (EnumGowalla(), MaxDblp()):
        state = wl.setup(HERE / "out")
        rows = {}
        for k, x in wl.grid:
            params = {"k": k, "x": x}
            answer, _stats = wl.execute(state, wl.op, params)
            if wl.op == "enumerate":
                rows[wl._key(params)] = {
                    "count": len(answer),
                    "digest": digest(c.vertices for c in answer),
                }
            else:
                rows[wl._key(params)] = {"size": answer.size}
        pinned[wl.name] = rows
    serve = ServeEdits()
    graph = load_dataset(serve.dataset, scale=serve.scale, seed=DATASET_SEED)
    pred = default_predicate(serve.dataset, graph, permille=SERVE_PERMILLE)
    cores = enumerate_maximal_krcores(graph, SERVE_K, predicate=pred, plan=SERIAL)
    best = find_maximum_krcore(graph, SERVE_K, predicate=pred, plan=SERIAL)
    pinned[serve.name] = warm_answers({
        "enumerate": {"count": len(cores), "cores": [c.vertices for c in cores]},
        "maximum": {"size": best.size},
        "statistics": krcore_statistics(graph, SERVE_K + 1, predicate=pred, plan=SERIAL),
    })
    EXPECTED_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
