"""Regenerate the stored fit inputs and check them against their sha256.

    python3 bench/make_inputs.py    # regenerate into .bench_out/inputs, compare

Each input is one ``sample_undirected_ggp`` draw whose parameters and
``SimConfig.seed`` are recorded in ``bench/inputs/manifest.json``. The fit
workloads read the stored files rather than drawing them, so a change to the
simulator's random stream cannot move a fit metric; once such a change
lands, the check here reports a mismatch and the stored files stay as they
are.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from crmgraph import graphio, simulate  # noqa: E402
from crmgraph.params import GgpParams  # noqa: E402

from workloads import MANIFEST, file_sha256  # noqa: E402


def draw(entry, path):
    p = entry["params"]
    cfg = simulate.SimConfig(params=GgpParams(p["alpha"], p["sigma"], p["tau"]),
                             truncation_eps=p["eps"], seed=entry["seed"])
    z, _ = simulate.sample_undirected_ggp(cfg)
    header = (f"crmgraph sample_undirected_ggp alpha={p['alpha']} sigma={p['sigma']} "
              f"tau={p['tau']} eps={p['eps']} seed={entry['seed']}")
    graphio.write_edge_list(z, str(path), header=header)
    return z


def main():
    manifest = json.loads(MANIFEST.read_text())
    out_dir = ROOT / ".bench_out" / "inputs"
    out_dir.mkdir(parents=True, exist_ok=True)
    mismatched = []
    for name, entry in manifest.items():
        path = out_dir / entry["file"]
        z = draw(entry, path)
        digest = file_sha256(path)
        if digest != entry["sha256"]:
            mismatched.append(name)
        print(f"{name}: {z.n_nodes} nodes, {z.n_edges} edges, sha256 {digest}")
    if mismatched:
        print(f"regenerated inputs differ from the manifest: {', '.join(mismatched)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
