"""Work counters used by the cost-scaling checks and CLI reports."""

from dataclasses import dataclass, fields


@dataclass
class Tally:
    amplitude_evals: int = 0   # coherent amplitudes <xi|G>
    overlap_evals: int = 0     # pairwise state overlaps <G_i|G_j>
    samples: int = 0           # Monte-Carlo draws
    clamped_densities: int = 0

    def reset(self):
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


tally = Tally()
