#!/usr/bin/env python3
"""Variable-length coding against the converse: simulate, enumerate, reproduce.

Builds two-phase repeat-then-confirm schemes over a binary symmetric
channel, measures error probability and expected length by Monte Carlo,
pins the same quantities down exactly by enumerating the stopped output
tree, and places the achieved (rate, exponent) points under the
classical line.  The last section exercises the reproducibility story:
the CSV a run writes carries a manifest header, and replaying that
manifest reproduces the file byte for byte.
"""

import tempfile
from pathlib import Path

from fbound import build_yamamoto_itoh, burnashev, exact_stats, exponent_sweep, load_channel
from fbound.cli import main as cli_main, read_manifest, rerun_from_manifest

CHANNELS = Path(__file__).resolve().parents[1] / "channels"


def main() -> None:
    ch = load_channel(str(CHANNELS / "bsc01.json"))
    schemes = [build_yamamoto_itoh(ch, m, 3, 4, cap=2, seed=5) for m in (2, 4)]
    for sch in schemes:
        print(f"scheme {sch.name}: codebook={sch.codebook} confirm={sch.confirm}")

    print("\nMonte Carlo at 20000 trials vs the classical line:")
    for sch, st in exponent_sweep(ch, schemes, trials=20000, seed=1):
        line = burnashev(ch, st.rate)
        print(f"  M={st.m}: Pe={st.pe:.5f} [{st.pe_lo:.5f},{st.pe_hi:.5f}]  "
              f"E[tau]={st.et:.3f}  rate={st.rate:.4f}")
        print(f"       exponent={st.exponent:.4f} (hi {st.exp_hi:.4f})  "
              f"line at this rate={line.exponent:.4f}")

    # Exact evaluation: enumerate every stopped output path once, weight by
    # its probability, and read off Pe and E[tau] with no sampling error.
    ex = exact_stats(schemes[0], ch)
    print(f"\nexact enumeration for M=2: Pe={ex.pe:.9f} E[tau]={ex.et:.6f} "
          f"rate={ex.rate:.6f} exponent={ex.exponent:.6f} ({ex.leaves} leaves)")

    # Reproducibility: run the CLI into a CSV, then replay its manifest and
    # demand the identical file.
    with tempfile.TemporaryDirectory() as tmp:
        out1 = Path(tmp) / "sweep.csv"
        out2 = Path(tmp) / "replay.csv"
        argv = ["simulate", "--channel", str(CHANNELS / "bsc01.json"),
                "--m", "2,4", "--n1", "3", "--n2", "4", "--cap", "2",
                "--scheme-seed", "5", "--trials", "5000", "--seed", "9",
                "--out", str(out1)]
        code = cli_main(argv)
        man = read_manifest(str(out1))
        print(f"\nCLI run exit={code}; manifest command={man['command']!r} "
              f"trials={man['config']['trials']} channel sha={man['channel']['sha256'][:12]}…")
        rerun_from_manifest(man, out=str(out2))
        same = out1.read_bytes() == out2.read_bytes()
        print(f"replayed from the manifest: byte-identical = {same}")
        assert same


if __name__ == "__main__":
    main()
