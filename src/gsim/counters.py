"""Work counters used by the cost-scaling checks and CLI reports."""

from dataclasses import dataclass


@dataclass
class Tally:
    amplitude_evals: int = 0   # coherent amplitudes <xi|G>
    overlap_evals: int = 0     # pairwise state overlaps <G_i|G_j>
    samples: int = 0           # Monte-Carlo draws
    clamped_densities: int = 0

    def reset(self):
        self.amplitude_evals = 0
        self.overlap_evals = 0
        self.samples = 0
        self.clamped_densities = 0

    def snapshot(self) -> dict:
        return {
            "amplitude_evals": self.amplitude_evals,
            "overlap_evals": self.overlap_evals,
            "samples": self.samples,
            "clamped_densities": self.clamped_densities,
        }


tally = Tally()
