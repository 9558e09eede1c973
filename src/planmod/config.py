"""Run configuration: the constants the source material leaves symbolic, the
desk-scale parameter overrides, and the enumeration caps."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .errors import InputError


@dataclass(frozen=True)
class PipelineConfig:
    # cited-but-never-quantified constants; any value keeps the contracts
    # internally consistent because both branches are verified directly
    c1: int = 9
    c2: int = 9
    # desk-scale parameter overrides (None = use the defining formula)
    rho_hat: int | None = None
    w_hat: int | None = None
    q_hat: int | None = 3
    d_hat: int | None = None
    # solver behaviour
    size_mode: str = "at_most"          # or "exact"
    cross_check: bool = True            # False is for benchmarking only: unsound
    bucket_threshold: int = 2           # equivalent walls needed before replacing
    # enumeration caps; searches raise ResourceLimitError instead of guessing
    cap_oracle_subsets: int = 2_000_000
    cap_char_subsets: int = 200_000
    cap_wall_nodes: int = 200_000
    cap_exact_tw: int = 14
    cap_compass: int = 160
    cap_brute_vertices: int = 128
    cap_quant_depth: int = 16

    def __post_init__(self):
        if self.size_mode not in ("at_most", "exact"):
            raise InputError("size_mode must be 'at_most' or 'exact'")
        for name in CAPS:
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive")

    def to_json_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PipelineConfig":
        return cls(**obj)


# the enumeration caps' field names, in declaration order
CAPS = tuple(f.name for f in fields(PipelineConfig) if f.name.startswith("cap_"))
