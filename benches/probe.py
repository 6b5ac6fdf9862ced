"""Set-up probe: run in a fresh interpreter, print one line when ready.

Ready means ``structrl.cli`` is imported, the dataset is loaded and the
backend is built; for the HTTP backend it also means one request succeeded.
The caller times the interval from process start to that line.

    python3 probe.py DATASET mock FIXTURES
    python3 probe.py DATASET http ENDPOINT
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import structrl.cli  # noqa: E402,F401
from structrl.backends import SamplingParams, make_backend  # noqa: E402
from structrl.dataset import load_jsonl  # noqa: E402
from structrl.errors import BackendError  # noqa: E402
from structrl.prompting import build_main_prompt  # noqa: E402

ATTEMPTS = 5


def main(dataset: str, kind: str, where: str) -> int:
    queries = load_jsonl(dataset)
    if kind == "mock":
        make_backend("mock", fixtures=where)
    else:
        backend = make_backend("http", endpoint=where)
        prompt = build_main_prompt(queries[0].question, list(queries[0].docs))
        for attempt in range(ATTEMPTS):
            try:
                backend.generate(prompt, SamplingParams())
                break
            except BackendError:
                if attempt == ATTEMPTS - 1:
                    raise
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
