"""End-to-end benchmark through the command-line interface.

Generates a synthetic panel CSV, evaluates a method subset on it through
the same entry point the installed `ctsbench` script uses, then inspects
the four artifacts a run leaves behind: the per-series metrics table, the
machine-readable summary, and the two SVG charts.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile

from ctsbench.cli import main as ctsbench


def demo(workdir: str, keep: bool) -> None:
    csv_path = os.path.join(workdir, "panel.csv")
    out_dir = os.path.join(workdir, "reports")

    print("$ ctsbench synth --generator seasonal_ar --n 30 --len 96 --seed 9 "
          f"--out {csv_path}")
    rc = ctsbench([
        "synth", "--generator", "seasonal_ar", "--n", "30", "--len", "96",
        "--seed", "9", "--out", csv_path,
    ])
    assert rc == 0, f"synth exited {rc}"
    print()

    print(f"$ ctsbench run --data {csv_path} --horizon 6 "
          "--methods mscp,aci,enbpi,parametric --seed 3 --out", out_dir)
    rc = ctsbench([
        "run", "--data", csv_path, "--horizon", "6",
        "--methods", "mscp,aci,enbpi,parametric", "--seed", "3", "--out", out_dir,
    ])
    assert rc == 0, f"run exited {rc}"
    print()

    print("artifacts:")
    for name in sorted(os.listdir(out_dir)):
        size = os.path.getsize(os.path.join(out_dir, name))
        print(f"  {name:<14} {size:6d} bytes")
    print()

    with open(os.path.join(out_dir, "summary.json")) as f:
        summary = json.load(f)
    print("summary.json, per-method coverage:")
    for method, stats in summary["methods"].items():
        print(f"  {method:<11} {stats['coverage']:.4f} over {stats['n_series']} series")
    fr = summary["friedman"]
    if fr is not None:
        print(f"friedman p-value: {fr['p_value']:.3e}")
    print()
    print(f"everything lives under {workdir}"
          + ("" if keep else " (temp dir, sandbox-cleaned)"))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--keep", metavar="DIR", help="write artifacts here instead of a temp dir")
    args = ap.parse_args()

    if args.keep:
        demo(args.keep, keep=True)
    else:
        with tempfile.TemporaryDirectory(prefix="ctsbench_demo_") as workdir:
            demo(workdir, keep=False)


if __name__ == "__main__":
    main()
