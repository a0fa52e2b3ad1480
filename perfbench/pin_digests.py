#!/usr/bin/env python3
"""Recompute the pinned output digests in perfbench/digests.json.

    python3 perfbench/pin_digests.py --seeds 0-63

Codes the text and graph corpora of every seed once at jobs=1 and
records the SHA-256 of coded.jsonl and coauthors.tsv. Run it only in a
change that means to alter the output bytes, and say so in that change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from citecode import pipeline  # noqa: E402
from citecode.config import PipelineConfig  # noqa: E402

import corpus as corpora  # noqa: E402


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-63")
    args = parser.parse_args()
    low, _, high = args.seeds.partition("-")
    seeds = range(int(low), int(high or low) + 1)

    config = PipelineConfig()
    config.validate()
    resources = pipeline.load_resources(config)
    path = HERE / "digests.json"
    pinned = json.loads(path.read_text(encoding="utf-8"))
    work = ROOT / ".perfbench" / "pin"
    for kind, writer in (("text", corpora.write_text_corpus), ("graph", corpora.write_graph_corpus)):
        for seed in seeds:
            shutil.rmtree(work, ignore_errors=True)
            corpus = writer(work / "corpus", seed)
            result = pipeline.run_pipeline(pipeline.read_manifest(corpus.manifest), config, resources)
            pipeline.write_outputs(result, work / "out")
            pinned[kind][str(seed)] = {
                "coded": _sha(work / "out" / "coded.jsonl"),
                "coauthors": _sha(work / "out" / "coauthors.tsv"),
            }
            print(f"{kind} seed {seed}: pinned", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    for kind in pinned:
        pinned[kind] = dict(sorted(pinned[kind].items(), key=lambda item: int(item[0])))
    path.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
