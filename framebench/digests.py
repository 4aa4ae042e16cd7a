"""Write ``digests.json``: the committed ``sim_digest`` per workload and seed.

    PYTHONPATH=src python3 framebench/digests.py --seeds 0-63

Each digest covers the records a run digests (the warm-up lap of a
looping workload, else the leading views), rendered on the library's
bit-exact reference paths (``frames.ORACLE``), so the table does not
depend on the fast paths a run times.  Make it again only for a change
that is meant to alter the simulated numbers.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

import frames
from repro.engine import clear_cache


def digest(workload, seed):
    spec = frames.WORKLOADS[workload]
    views = frames.Views(frames.get_profile(spec["scene"]), spec["loop"],
                         seed)
    return frames.sim_digest(frames.render_records(
        spec, seed, views, range(spec["digest_frames"]), **frames.ORACLE))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-63",
                    help="inclusive seed range, as FIRST-LAST")
    args = ap.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    table = (json.loads(frames.DIGESTS.read_text())
             if frames.DIGESTS.is_file() else {})
    for workload in sorted(frames.WORKLOADS):
        entries = table.setdefault(workload, {})
        for seed in range(first, last + 1):
            entries[str(seed)] = digest(workload, seed)
            clear_cache()  # each seed builds its own scene
            gc.collect()
        frames.DIGESTS.write_text(
            json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: seeds {first}-{last}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
