"""Child-process entry points of the benchmark.

    child.py [--trace OUT] cli ARGS...
        run ``starctr ARGS...`` (the CLI's ``main``), optionally traced
    child.py [--trace OUT] requests FOLDED HOLDOUT BLOCK SEED OUT
        closed-loop request client: one client sends requests of
        REQUEST_SIZE same-domain holdout rows through
        ``FoldedModel.score_examples``, each after the previous reply.
        It prints "ready" once loaded; then each "block" line on stdin runs
        WARMUP_REQUESTS untimed and BLOCK timed requests and prints "done".
        At end of input it saves latencies, scores and row indices to OUT.
    child.py reference CHECKPOINT HOLDOUT OUT
        unfolded ``score_with_model`` scores of the holdout (a check, untimed)

With ``--trace OUT`` the spans of the whole process are saved to ``OUT``
(see tracer.py).  ``PYTHONPATH`` must point at the package sources.
"""

from __future__ import annotations

import sys
import time

import numpy as np

REQUEST_SIZE = 100
WARMUP_REQUESTS = 20


def request_chunks(domains: np.ndarray) -> np.ndarray:
    """Row indices of every full REQUEST_SIZE run of same-domain rows,
    in file order within each domain; shape (n_chunks, REQUEST_SIZE)."""
    chunks = []
    for p in np.unique(domains):
        rows = np.flatnonzero(domains == p)
        full = rows.size // REQUEST_SIZE * REQUEST_SIZE
        chunks.append(rows[:full].reshape(-1, REQUEST_SIZE))
    return np.concatenate(chunks)


def request_order(n_chunks: int, seed: int):
    """Chunk id of each request: back-to-back seeded permutations."""
    rng = np.random.default_rng(seed)
    while True:
        yield from rng.permutation(n_chunks)


def run_requests(args, tracer):
    from starctr.datagen import read_dataset
    from starctr.serve import load_folded

    folded_path, holdout_path, block, seed, out = args
    examples = read_dataset(holdout_path)
    folded = load_folded(folded_path)
    chunks = request_chunks(np.array([ex.p for ex in examples]))
    order = request_order(len(chunks), int(seed))
    latency, scores, rows = [], [], []
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "block":
            break
        # The benchmark runs other commands between blocks; untimed requests
        # first refill the caches they evicted.
        for _ in range(WARMUP_REQUESTS):
            folded.score_examples([examples[i] for i in chunks[next(order)]])
        for _ in range(int(block)):
            chunk = chunks[next(order)]
            request = [examples[i] for i in chunk]
            if tracer is not None:
                tracer.request = len(latency)
            t0 = time.perf_counter()
            yhat = folded.score_examples(request)
            latency.append(time.perf_counter() - t0)
            scores.append(yhat)
            rows.append(chunk)
        print("done", flush=True)
    np.savez(out, latency=np.array(latency), scores=np.array(scores), rows=np.array(rows))
    return 0


def run_reference(args, tracer):
    from starctr.checkpoint import load_model
    from starctr.datagen import read_dataset
    from starctr.serve import score_with_model

    checkpoint, holdout, out = args
    np.save(out, score_with_model(load_model(checkpoint), read_dataset(holdout)))
    return 0


def run_cli(args, tracer):
    from starctr import cli

    return cli.main(args)


COMMANDS = {"cli": run_cli, "requests": run_requests, "reference": run_reference}


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    if not argv or argv[0] not in COMMANDS:
        print(__doc__, file=sys.stderr)
        return 2
    tracer = None
    if trace_out is not None:
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())
    try:
        return COMMANDS[argv[0]](argv[1:], tracer)
    finally:
        if tracer is not None:
            tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
