"""The benchmark's workloads: what one pass runs, and why it is there.

Each train workload turns the workload seed into a CLI config (the seed
sets ``data.seed`` and the run seeds); the program sees only that config.
The rationale fields are printed in every result so that a later change
can name the workload where it should show nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# the default SyntheticSpec and TrainConfig sizes the step count is taken from
_ITEMS = 128
_BATCH = 32
_EPOCHS = 60

# The verify command runs these suites; each is one operation.
VERIFY_SUITES = ("sandwich", "hinge_identity", "smoothing_identity",
                 "upper_bound", "lap_exact", "sparsemax", "gradients", "fig1b")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    bypasses: str
    predicted_share: str
    # (name, kind, extra loss fields) per loss variant; empty for verify
    losses: Tuple[Tuple[str, Dict[str, object]], ...] = ()
    runs_per_loss: int = 0
    epochs: Optional[int] = None

    @property
    def is_train(self) -> bool:
        return bool(self.losses)

    def config(self, seed: int) -> dict:
        """The CLI config for one pass at this workload seed."""
        doc: dict = {
            "data": {"seed": seed},
            "losses": [dict(name=name, **fields) for name, fields in self.losses],
            "seeds": [seed + i for i in range(self.runs_per_loss)],
        }
        if self.epochs is not None:
            doc["train"] = {"epochs": self.epochs}
        return doc

    def argv(self, config_path: str, out_dir: str) -> List[str]:
        if not self.is_train:
            return ["verify"]
        return ["train", "--config", config_path, "--out", out_dir]

    def operations(self) -> int:
        """Operations in one pass: one CLI invocation, or one per suite."""
        return 1 if self.is_train else len(VERIFY_SUITES)

    def epoch_count(self) -> int:
        return self.epochs if self.epochs is not None else _EPOCHS

    def steps(self) -> int:
        """Work units in one pass: optimizer steps (epochs x floor(N/batch)
        x runs) for train workloads, suites for verify."""
        if not self.is_train:
            return len(VERIFY_SUITES)
        runs = len(self.losses) * self.runs_per_loss
        return self.epoch_count() * (_ITEMS // _BATCH) * runs

    def describe(self) -> dict:
        return {"why": self.why, "stresses": self.stresses,
                "bypasses": self.bypasses, "predicted_share": self.predicted_share,
                "steps_per_pass": self.steps()}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="pairwise",
        why=("the step loop every loss shares (encoder, pairwise_distances, "
             "loss, Tape.backward, Adam) over all five pairwise kinds at beta=0"),
        stresses=("harness.MLPEncoder.forward, simgeom.pairwise_distances, the "
                  "five pairwise losses, tensor.Tape.backward, harness.adam_step"),
        bypasses=("simgeom.eigvals (0 calls); assignment.solve_lap runs only in "
                  "the final evaluation at n=128"),
        predicted_share="assignment.solve_lap under 25 % of pass_s; no eigen calls",
        losses=(
            ("infonce", {"kind": "infonce"}),
            ("smoothed", {"kind": "smoothed"}),
            ("nt_logistic", {"kind": "nt_logistic"}),
            ("sparseclr", {"kind": "sparseclr"}),
            ("margin", {"kind": "margin", "mining": "batch-hard"}),
        ),
        runs_per_loss=2,
    ),
    Workload(
        name="lap",
        why=("one exact solve_lap at n=32 per step (720 per pass); generic float "
             "inputs leave ~2n tight edges, so the tie-break refinement always runs"),
        stresses="assignment.solve_lap via losses.structured_lap_loss",
        bypasses="simgeom.eigvals (0 calls)",
        predicted_share="assignment.solve_lap about 80 % of pass_s",
        losses=(("margin_one_to_one", {"kind": "margin", "mining": "one-to-one"}),),
        runs_per_loss=3,
    ),
    Workload(
        name="qare",
        why=("infonce at beta=1 in euclidean and cosine mode, 5 epochs; cosine "
             "1+S spectra are rank-deficient, so degenerate and generic spectra"),
        stresses="simgeom.eigvals and simgeom.sym_eigen at n=32 via losses.qare",
        bypasses="assignment.solve_lap except the final evaluation at n=128",
        predicted_share="simgeom.eigvals + simgeom.sym_eigen about 90 % of pass_s",
        losses=(
            ("qare_euclidean", {"kind": "infonce", "beta": 1.0,
                                "mode": "euclidean"}),
            ("qare_cosine", {"kind": "infonce", "beta": 1.0, "mode": "cosine"}),
        ),
        runs_per_loss=1,
        epochs=5,
    ),
    Workload(
        name="verify",
        why=("all 8 verify suites: the same layers called thousands of times at "
             "n <= 8 against brute-force oracles, so Python-call overhead dominates"),
        stresses=("assignment.brute_force_lap and solve_lap (lap_exact), "
                  "simgeom.sym_eigen, tensor.gradcheck (gradients), losses.sparsemax"),
        bypasses="harness.train and the whole training step loop",
        predicted_share=("gradients + lap_exact about 75 % of pass_s; "
                         "sym_eigen about 30 %, brute_force_lap about 35 %"),
    ),
)}
