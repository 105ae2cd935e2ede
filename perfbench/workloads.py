"""The benchmark's workloads: ``fbound`` command lines with their reference
checks.

Every path is relative to the repository root, where the commands run.
``{seed}`` in an argument is replaced by the workload seed and ``{out}`` by
a fresh output file; the CSV manifest leaves the output path out, so the
file's bytes do not depend on where it is written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from checks import BoundCheck, Outcome, SimExpect, SimulateCheck, VerifyCheck


@dataclass(frozen=True)
class Command:
    name: str                     # the command's own timing, e.g. "exponent_s"
    argv: tuple[str, ...]         # arguments after ``fbound``
    check: Callable[[Outcome, int], list[str]]
    env: dict = field(default_factory=dict)

    def expand(self, seed: int, out: str) -> list[str]:
        return [a.replace("{seed}", str(seed)).replace("{out}", out) for a in self.argv]

    @property
    def writes_csv(self) -> bool:
        return "{out}" in self.argv


@dataclass(frozen=True)
class Workload:
    name: str
    channels: tuple[str, ...]     # channel files parsed by the set-up probe
    commands: tuple[Command, Command, Command]  # (a), (b), (c): cmd_a_s, cmd_b_s, cmd_c_s


BURNASHEV_BSC01_R025 = 1.3420045222115322

# Two workloads, each of three commands of 2-5 s, so that a run of a minute
# samples every command several times.  One workload runs every layer that
# builds joint laws and searches over them; the other runs the per-path
# checks and the simulator, which the law and search layers do not reach.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bounds",
            channels=("channels/bsc01.json", "channels/flip2.json", "channels/histk2.json"),
            commands=(
                Command(
                    "exponent_rules_s",
                    ("bound-exponent", "--channel", "channels/bsc01.json",
                     "--rate", "0.25", "--horizon", "3", "--stopping", "all",
                     "--messages", "2"),
                    BoundCheck("exponent", 1, BURNASHEV_BSC01_R025,
                               ("m2_encoders_restricted_to_per_step_maps",)),
                    env={"FBOUND_BUDGET": "1000"},
                ),
                # The capacity search seed stays 0: it picks the random
                # restarts, so it changes how many laws the search builds,
                # not just its inputs.
                Command(
                    "capacity_s",
                    ("bound-capacity", "--channel", "channels/flip2.json",
                     "--horizon", "3", "--stopping", "all", "--restarts", "0",
                     "--seed", "0"),
                    BoundCheck("capacity", 0, 0.07518129502696343),
                ),
                Command(
                    "capacity_hist_s",
                    ("bound-capacity", "--channel", "channels/histk2.json",
                     "--horizon", "2", "--stopping", "all", "--seed", "0"),
                    BoundCheck("capacity", 0, 0.13409196031152268),
                ),
            ),
        ),
        Workload(
            name="paths",
            channels=("channels/bsc02.json", "channels/bsc01.json", "channels/flip2.json"),
            commands=(
                Command(
                    "verify_s",
                    ("verify", "--channel", "channels/bsc02.json", "--suite", "all",
                     "--horizon", "11", "--seed", "{seed}", "--out", "{out}"),
                    VerifyCheck(0, 9, 9, csv_reference="verify_bsc02_h11.csv"),
                ),
                Command(
                    "simulate_dmc_s",
                    ("simulate", "--channel", "channels/bsc01.json", "--m", "2",
                     "--n1", "5", "--n2", "4", "--cap", "2", "--trials", "100000",
                     "--seed", "{seed}", "--exact", "--out", "{out}"),
                    SimulateCheck(100000, 9, 2, (
                        SimExpect(2, 0.002581233054400338, 9.27118799998394),
                    ), csv_reference="simulate_bsc01_m2.csv"),
                ),
                Command(
                    "simulate_state_s",
                    ("simulate", "--channel", "channels/flip2.json", "--m", "2",
                     "--n1", "3", "--n2", "4", "--cap", "2", "--trials", "20000",
                     "--seed", "{seed}", "--exact"),
                    SimulateCheck(20000, 7, 2, (
                        SimExpect(2, 0.4223278021918716, 9.058514707199976),
                    )),
                ),
            ),
        ),
    )
}
